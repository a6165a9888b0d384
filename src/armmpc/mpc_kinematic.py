"""Condensed kinematic MPC for position-controlled robots.

The decision variable stacks the joint positions over the horizon
(q_i .. q_{i+n_p}, with q_i pinned to the command already applied).
Velocities and accelerations are affine in that stack: banded
backward-difference operators, built once per (n, horizon, dt) of the
config, plus constant offsets that fold in the two commands before the
stack. The tracking + damping + acceleration cost, each with a scalar
weight, is one dense strictly convex QP with joint position and velocity
bounds, plus terminal boxes when the window reaches the end of the
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qp
from .horizon import HorizonConfig, RecedingHorizon
from .nominal import NominalRollout, ik_rollout
from .robot_model import JointLimits
from .trajgen import TaskTrajectory


@dataclass
class KinematicMpcConfig(HorizonConfig):
    task_weight: float = 2000.0
    damping_weight: float = 0.01
    accel_weight: float = 0.0  # on joint accelerations
    terminal_pos_tol: float = 1e-3  # rad, box around nominal q_N
    terminal_vel_tol: float = 1e-2  # rad/s


def _diff_offsets(n: int, horizon: int, dt: float, q_prev, q_prev2):
    """Constant offsets of the difference operators: the two positions
    before the stack start, q_prev and q_prev2, enter only here."""
    q_prev = np.asarray(q_prev, dtype=float)
    q_prev2 = np.asarray(q_prev2, dtype=float)
    dim = (horizon + 1) * n
    vel_off = np.zeros(dim)
    acc_off = np.zeros(dim)
    vel_off[:n] = -q_prev / dt
    acc_off[:n] = (-2 * q_prev + q_prev2) / dt**2
    if horizon >= 1:
        acc_off[n:2 * n] = q_prev / dt**2
    return vel_off, acc_off


@lru_cache(maxsize=8)
def _diff_matrices(n: int, horizon: int, dt: float):
    """Constant banded operator matrices, shared read-only by every caller:
    the first and second backward differences D and D^2 of the steps, one
    n x n identity block per entry. Adding 0.0 clears the negative zeros
    that the -2 band of D^2 leaves off the block diagonals."""
    steps = horizon + 1
    diff = np.eye(steps) - np.eye(steps, k=-1)
    vel_op = np.kron(diff, np.eye(n)) / dt
    acc_op = np.kron(diff @ diff, np.eye(n)) / dt**2 + 0.0
    vel_op.setflags(write=False)
    acc_op.setflags(write=False)
    return vel_op, acc_op


@lru_cache(maxsize=8)
def _diff_cost(n: int, horizon: int, dt: float, weight: float, order: int):
    """Constant Hessian block weight·op.T op of the cost weight·|op z + off|^2,
    with op the velocity (order 1) or acceleration (order 2) operator; None
    for a zero weight. Shared read-only by every caller."""
    if not weight:
        return None
    op = _diff_matrices(n, horizon, dt)[order - 1]
    quad = (weight * op.T) @ op
    quad.setflags(write=False)
    return quad


def build_kin_qp(cfg: KinematicMpcConfig, rollout: NominalRollout, history,
                 limits: JointLimits, terminal_widen: float | None = None,
                 q_pin: np.ndarray | None = None) -> qp.QpProblem:
    """Assemble the tracking QP around the IK nominal.

    Cost: sum_k w_task |err_k - J_k (q_k - qhat_k)|^2 + w_damp |qdot|^2
    + w_accel |qddot|^2, with qdot/qddot the backward differences of the
    position stack at cfg's horizon and dt; history = (q_prev, q_prev2)
    holds the two positions before the stack start, which enter only the
    differences' constant offsets. Box bounds on positions and two-sided
    rows on the stacked velocities. The first block is pinned to q_pin (the
    already-applied command; defaults to the rollout start) so the decision
    stack is the continuation of the command signal. terminal_widen, unless
    None, adds boxes of that many tolerances around the rollout's end
    position and velocity.
    """
    steps, n = rollout.q_hat.shape
    if steps != cfg.horizon + 1:
        raise ValueError(f"rollout holds {steps} steps, config horizon needs {cfg.horizon + 1}")
    dim = steps * n
    vel_op, acc_op = _diff_matrices(n, cfg.horizon, cfg.dt)
    vel_off, acc_off = _diff_offsets(n, cfg.horizon, cfg.dt, *history)

    hess = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for k in range(steps):
        blk = slice(k * n, (k + 1) * n)
        jk = rollout.j_stack[k]
        jtqj = (cfg.task_weight * jk.T) @ jk
        hess[blk, blk] += jtqj
        # first-order task error e(q) ~ err_hat - J (q - qhat): the target
        # vector keeps the nominal's own residual so the plan can beat it
        grad[blk] -= jk.T @ (cfg.task_weight * rollout.err_stack[k]) + jtqj @ rollout.q_hat[k]
    for op, off, weight, order in ((vel_op, vel_off, cfg.damping_weight, 1),
                                   (acc_op, acc_off, cfg.accel_weight, 2)):
        quad = _diff_cost(n, cfg.horizon, cfg.dt, weight, order)
        if quad is not None:
            hess += quad
            grad += op.T @ (weight * off)

    lb = np.tile(limits.q_min, steps)
    ub = np.tile(limits.q_max, steps)
    pin = rollout.q_hat[0] if q_pin is None else np.asarray(q_pin, dtype=float)
    lb[:n] = ub[:n] = pin
    vmax = np.tile(limits.v_max, steps)
    lin = -vmax - vel_off
    uin = vmax - vel_off

    if terminal_widen is not None:
        eps_q = cfg.terminal_pos_tol * terminal_widen
        eps_v = cfg.terminal_vel_tol * terminal_widen
        last = slice(dim - n, dim)
        lb[last] = np.maximum(lb[last], rollout.q_hat[-1] - eps_q)
        ub[last] = np.minimum(ub[last], rollout.q_hat[-1] + eps_q)
        lin[last] = np.maximum(lin[last], rollout.qd_hat[-1] - eps_v - vel_off[last])
        uin[last] = np.minimum(uin[last], rollout.qd_hat[-1] + eps_v - vel_off[last])

    return qp.QpProblem(H=2.0 * hess, g=2.0 * grad, lb=lb, ub=ub,
                        Ain=vel_op, lin=lin, uin=uin)


@dataclass
class KinStepResult:
    q_cmd: np.ndarray
    solution: qp.QpSolution | None
    rollout: NominalRollout
    degraded: bool
    plan: np.ndarray | None = None  # (horizon+1, n) solved position stack


class KinematicMpc(RecedingHorizon):
    """Receding-horizon position controller; one instance per robot."""

    def reset(self):
        super().reset()
        self._hist1 = self._hist2 = self._last_cmd = None  # commands at t-1, t-2 and t

    def step(self, q_measured, traj: TaskTrajectory, tick: int) -> KinStepResult:
        """One control tick: returns the next commanded joint position.

        The plan continues the command signal (first block pinned to the
        previously applied command, difference history over past commands);
        the measured state feeds back through the IK rollout that the
        tracking cost linearizes around. A degraded tick holds the last
        command.
        """
        model = self.model
        cfg = self.cfg
        q_measured = model.check_q(q_measured)
        if self._hist1 is None:
            self._hist1 = q_measured.copy()
            self._hist2 = q_measured.copy()
            self._last_cmd = q_measured.copy()
        window, includes_end = traj.window(tick, cfg.horizon)
        rollout = ik_rollout(model, q_measured, window, cfg.dt, cfg.svd_threshold, traj.tasks)
        solution, degraded = self._solve(
            lambda widen: build_kin_qp(cfg, rollout, (self._hist1, self._hist2), self.limits,
                                       terminal_widen=widen, q_pin=self._last_cmd),
            includes_end)
        if degraded:
            plan = None
            q_cmd = self._last_cmd
        else:
            plan = solution.z_star.reshape(cfg.horizon + 1, model.n)
            q_cmd = plan[1]

        self._hist2 = self._hist1
        self._hist1 = self._last_cmd.copy()
        self._last_cmd = q_cmd.copy()
        return KinStepResult(
            q_cmd=q_cmd,
            solution=solution,
            rollout=rollout,
            degraded=degraded,
            plan=plan,
        )
