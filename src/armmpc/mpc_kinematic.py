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
    q_prev, q_prev2 = np.asarray(q_prev, dtype=float), np.asarray(q_prev2, dtype=float)
    vel_off, acc_off = np.zeros((2, (horizon + 1) * n))
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
    position and velocity. H is S + S' for the cost's Hessian S, exactly
    symmetric, so the solver takes it as it is.
    """
    steps, n = rollout.q_hat.shape
    if steps != cfg.horizon + 1:
        raise ValueError(f"rollout holds {steps} steps, config horizon needs {cfg.horizon + 1}")
    dim = steps * n
    vel_op, acc_op = _diff_matrices(n, cfg.horizon, cfg.dt)
    vel_off, acc_off = _diff_offsets(n, cfg.horizon, cfg.dt, *history)

    hess = np.zeros((dim, dim))
    jac_t = rollout.j_stack.transpose(0, 2, 1)
    jtj = np.matmul(cfg.task_weight * jac_t, rollout.j_stack)  # one block per step
    at = np.arange(dim).reshape(steps, n)
    hess[at[:, :, None], at[:, None, :]] = jtj
    # first-order task error e(q) ~ err_hat - J (q - qhat): the target
    # vector keeps the nominal's own residual so the plan can beat it
    grad = 0.0 - (np.matmul(jac_t, (cfg.task_weight * rollout.err_stack)[:, :, None])
                  + np.matmul(jtj, rollout.q_hat[:, :, None])).ravel()
    for op, off, weight, order in ((vel_op, vel_off, cfg.damping_weight, 1),
                                   (acc_op, acc_off, cfg.accel_weight, 2)):
        quad = _diff_cost(n, cfg.horizon, cfg.dt, weight, order)
        if quad is not None:
            hess += quad
            grad += op.T @ (weight * off)

    limit_rows = [[limits.q_min], [limits.q_max], [limits.v_max]]
    lb, ub, vmax = np.repeat(limit_rows, steps, axis=1).reshape(3, dim)  # one block per step
    lb[:n] = ub[:n] = rollout.q_hat[0] if q_pin is None else q_pin
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

    return qp.QpProblem(H=hess + hess.T, g=2.0 * grad, lb=lb, ub=ub,
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
        plan = None if degraded else solution.z_star.reshape(cfg.horizon + 1, model.n)
        q_cmd = self._last_cmd if degraded else plan[1]

        self._hist2 = self._hist1
        self._hist1 = self._last_cmd.copy()
        self._last_cmd = q_cmd.copy()
        return KinStepResult(q_cmd=q_cmd, solution=solution, rollout=rollout, degraded=degraded,
                             plan=plan)
