"""Receding-horizon core shared by the kinematic and the dynamic MPC.

Both run one scheme: each tick, linearize around a hierarchical controller's
nominal, solve one QP and apply its first command. HorizonConfig checks the
settings both read; RecedingHorizon owns the policy around the QP, and
hessian_band writes the per-step cost blocks into the QP's Hessian band.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import qp
from .robot_model import RobotModel, require_number

TERMINAL_WIDEN = 10.0  # terminal box scale on the tick after a degraded one


@dataclass
class HorizonConfig:
    """Settings of both MPCs (defaults are the dynamic MPC's).

    Every field is a number, not a bool; weights and tolerances are scalars.
    Every field named *_weight must be finite and >= 0 and every *_tol
    finite and > 0, subclass fields included.
    """

    horizon: int = 10
    dt: float = 1e-3
    task_weight: float = 10.0  # on stacked task-error rows
    damping_weight: float = 1e-4  # on joint velocities
    svd_threshold: float = 1e-2  # relative cut: J_p's singular values (IK), J_p M^-1 J_p' eigenvalues (OSC)

    def __post_init__(self):
        if not (isinstance(self.horizon, numbers.Integral) and not isinstance(self.horizon, bool)
                and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            require_number(value, f.name)
            if f.name.endswith("_weight") and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")
            if f.name.endswith("_tol") and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.svd_threshold < 1:
            raise ValueError(f"svd_threshold must lie in (0, 1), got {self.svd_threshold}")


@lru_cache(maxsize=4)
def _lower_triangle(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, column) of each entry of an n x n lower triangle, to width
    below the diagonal; read only, by hessian_band."""
    return np.nonzero(np.arange(width + 1)[:, None] + np.arange(n) < n)


def hessian_band(blocks: np.ndarray, at, d: int, width: int) -> np.ndarray:
    """The lower band, width + 1 rows in qp.QpProblem.H's storage, of the d x d
    block-diagonal matrix whose square blocks[..., k, :, :] start at variable
    at[k] on the diagonal, zero elsewhere. Only each block's lower triangle
    is read, to width below its diagonal; the blocks must not overlap.
    Leading axes of blocks give as many bands."""
    o, j = _lower_triangle(blocks.shape[-1], width)
    ab = np.zeros(blocks.shape[:-3] + (width + 1, d))
    ab[..., o, np.add.outer(np.asarray(at), j)] = blocks[..., j + o, j]
    return ab


class RecedingHorizon:
    """Tick policy around the one QP per tick.

    A subclass's step builds the nominal along the trajectory's own task
    hierarchy (TaskTrajectory.tasks) and calls _solve once. The QP is
    warm-started from the active set of the last optimal solve, and solved by
    the controller's own QpSolver, which keeps the QP's structure from tick
    to tick (see qp). A tick whose QP data is rejected (crossed terminal
    boxes) or whose solve is not optimal is degraded: the subclass applies
    its fallback command, the warm start is dropped, and the next tick that
    reaches the trajectory end builds its terminal box TERMINAL_WIDEN times
    wider.
    """

    def __init__(self, model: RobotModel, cfg: HorizonConfig):
        self.model = model
        self.cfg = cfg
        self.solver = qp.QpSolver()
        self.reset()

    def reset(self):
        """Forget the warm start and a pending terminal widening."""
        self._warm: tuple[int, ...] | None = None  # active set of the last optimal solve
        self._widen_next = False

    def _solve(self, build, includes_end: bool) -> tuple[qp.QpSolution | None, bool]:
        """Build and solve this tick's QP; returns (solution, degraded).

        build(terminal_widen) returns the QpProblem, with a terminal box
        scaled by terminal_widen, or none for None (a window short of the
        trajectory end). The solution is None when its data was rejected.
        """
        widen = None
        if includes_end:
            widen = TERMINAL_WIDEN if self._widen_next else 1.0
        try:
            solution = self.solver.solve(build(widen), warm_start=self._warm)
        except qp.QpDataError:
            solution = None  # crossed terminal boxes: trivially infeasible tick
        degraded = solution is None or solution.status != qp.OPTIMAL
        self._warm = None if degraded else solution.active_set
        self._widen_next = degraded
        return solution, degraded
