"""Receding-horizon core shared by the kinematic and the dynamic MPC.

Both run one scheme: each tick, linearize around a hierarchical controller's
nominal, solve one QP and apply its first command. HorizonConfig checks the
settings both read; RecedingHorizon owns the policy around the QP, and
hessian_band writes per-step cost blocks S as the QP's Hessian band, S + S'.
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


@lru_cache(maxsize=8)
def _band_slots(count: int, n: int, first: int, stride: int, d: int,
                width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where hessian_band reads and writes, read only: flat indices into a
    (count, n, n) block stack of each block's entries on and below its
    diagonal to width below it, of their mirrors on and above it, and each
    one's flat index into a (width + 1, d) band."""
    o, j = np.nonzero(np.arange(width + 1)[:, None] + np.arange(n) < n)
    block = np.arange(count)[:, None] * (n * n)
    lower, upper = (block + (j + o) * n + j).ravel(), (block + j * n + j + o).ravel()
    put = (o * d + first + np.arange(count)[:, None] * stride + j).ravel()
    for arr in (lower, upper, put):
        arr.setflags(write=False)
    return lower, upper, put


def hessian_band(blocks: np.ndarray, first: int, stride: int, d: int, width: int) -> np.ndarray:
    """The lower band, width + 1 rows in qp.QpProblem.H's storage, of S + S'
    for the d x d block-diagonal S whose square blocks[k], read to width off
    their diagonal and not overlapping, start at variable first + k * stride,
    zero elsewhere. Each entry is summed as it is gathered, S_ij + S_ji."""
    count, n = blocks.shape[:2]
    lower, upper, put = _band_slots(count, n, first, stride, d, width)
    ab = np.zeros((width + 1, d))
    ab.put(put, blocks.take(lower) + blocks.take(upper))
    return ab


class RecedingHorizon:
    """Tick policy around the one QP per tick.

    A subclass's step reads its targets through _window, builds the nominal
    along the trajectory's own task hierarchy (TaskTrajectory.tasks) and
    calls _solve once. The QP is warm-started from the active set of the
    last optimal solve; its structure is set up on the first tick and
    found in qp's cache on the later ones of the same pattern (see qp), so
    a tick only fills in values. A tick whose QP data is rejected (crossed
    terminal boxes) or whose solve is not optimal is degraded: the subclass
    applies its fallback command, the warm start is dropped, and the next
    tick that reaches the trajectory end builds its terminal box
    TERMINAL_WIDEN times wider.
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

    def _window(self, state, traj, tick: int):
        """The targets of this tick's horizon, traj.window(tick, horizon); a
        ValueError for a chain state of another model or at a q that is not
        finite (a RigidBodyState refuses a qd that is not when it is built),
        or for a trajectory not sampled at the config's dt: a tick reads one
        sample and plans steps of dt, so the targets would play at the wrong
        speed."""
        if state.model is not self.model:
            raise ValueError("chain state belongs to another model")
        if not np.isfinite(state.q).all():
            raise ValueError(f"the measured state is not finite: q = {state.q}")
        if not math.isclose(traj.dt, self.cfg.dt, rel_tol=1e-9):
            raise ValueError(f"trajectory is sampled at dt = {traj.dt}, the controller ticks "
                             f"at {self.cfg.dt}")
        return traj.window(tick, self.cfg.horizon)

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
