"""Condensed kinematic MPC for position-controlled robots.

The decision variable stacks the joint positions over the horizon
(q_i .. q_{i+n_p}, with q_i pinned to the measured value). Velocities and
accelerations are affine in that stack through banded difference operators
that fold the two-sample history into constant offsets, so the tracking +
damping + acceleration cost is one dense strictly convex QP with joint
position and velocity bounds, plus terminal boxes when the window reaches
the end of the trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .nominal import NominalRollout, TaskSpec, ik_rollout
from .robot_model import JointLimits, RobotModel
from .trajgen import TaskTrajectory


@dataclass
class KinematicMpcConfig:
    horizon: int = 10
    dt: float = 1e-3
    task_weight: np.ndarray | float = 2000.0  # on stacked task-error rows
    damping_weight: np.ndarray | float = 0.01  # on joint velocities
    accel_weight: np.ndarray | float = 0.0  # on joint accelerations
    terminal_pos_tol: np.ndarray | float = 1e-3  # rad, box around nominal q_N
    terminal_vel_tol: np.ndarray | float = 1e-2  # rad/s
    svd_threshold: float = 1e-2

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _weight_matrix(value, dim: int) -> np.ndarray:
    w = np.asarray(value, dtype=float)
    if w.ndim == 0:
        w = np.full(dim, float(w))
    if w.ndim == 1:
        if w.shape != (dim,):
            raise ValueError(f"weight vector must have length {dim}")
        return np.diag(w)
    if w.shape != (dim, dim):
        raise ValueError(f"weight matrix must be ({dim}, {dim})")
    return w


def _tol_vector(value, dim: int) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(dim, float(v))
    if v.shape != (dim,) or np.any(v <= 0):
        raise ValueError(f"tolerance must be a positive scalar or length-{dim} vector")
    return v


@dataclass(frozen=True, eq=False)
class StackedDiffOps:
    """Affine maps from the position stack to stacked velocities/accelerations."""

    vel_op: np.ndarray
    vel_off: np.ndarray
    acc_op: np.ndarray
    acc_off: np.ndarray


def _diff_offsets(n: int, horizon: int, dt: float, q_prev, q_prev2):
    """History-dependent offsets of the difference operators."""
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


def _diff_matrices(n: int, horizon: int, dt: float):
    """Constant banded operator matrices (cacheable per controller)."""
    steps = horizon + 1
    dim = steps * n
    eye = np.eye(n)
    vel_op = np.zeros((dim, dim))
    acc_op = np.zeros((dim, dim))
    for k in range(steps):
        row = slice(k * n, (k + 1) * n)
        vel_op[row, row] = eye / dt
        acc_op[row, row] = eye / dt**2
        if k >= 1:
            prev = slice((k - 1) * n, k * n)
            vel_op[row, prev] = -eye / dt
            acc_op[row, prev] += -2 * eye / dt**2
        if k >= 2:
            prev2 = slice((k - 2) * n, (k - 1) * n)
            acc_op[row, prev2] = eye / dt**2
    return vel_op, acc_op


def build_diff_ops(n: int, horizon: int, dt: float, q_prev, q_prev2,
                   matrices=None) -> StackedDiffOps:
    """Backward-difference operators over the (horizon+1)-step position stack.

    q_prev and q_prev2 are the two positions before the stack start; they
    appear only in the constant offsets. matrices optionally supplies cached
    (vel_op, acc_op) from _diff_matrices.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    vel_op, acc_op = matrices if matrices is not None else _diff_matrices(n, horizon, dt)
    vel_off, acc_off = _diff_offsets(n, horizon, dt, q_prev, q_prev2)
    return StackedDiffOps(vel_op=vel_op, vel_off=vel_off, acc_op=acc_op, acc_off=acc_off)


@dataclass(frozen=True, eq=False)
class TerminalTarget:
    q_ref: np.ndarray
    qd_ref: np.ndarray
    widen: float = 1.0


def build_kin_qp(model: RobotModel, cfg: KinematicMpcConfig, rollout: NominalRollout,
                 diff: StackedDiffOps, limits: JointLimits,
                 terminal: TerminalTarget | None = None,
                 cost_cache: dict | None = None,
                 q_pin: np.ndarray | None = None) -> qp.QpProblem:
    """Assemble the tracking QP around the IK nominal.

    Cost: sum_k |err_k - J_k (q_k - qhat_k)|^2_We + |qdot|^2_Wd + |qddot|^2_Wa
    with the difference operators supplying qdot/qddot; box bounds on
    positions and two-sided rows on the stacked velocity map. The first
    block is pinned to q_pin (the already-applied command; defaults to the
    rollout start) so the decision stack is the continuation of the command
    signal. cost_cache lets a controller reuse the constant damping and
    acceleration quadratic blocks across ticks.
    """
    n = model.n
    steps = rollout.q_hat.shape[0]
    if steps != cfg.horizon + 1:
        raise ValueError(f"rollout holds {steps} steps, config horizon needs {cfg.horizon + 1}")
    dim = steps * n
    w_task = _weight_matrix(cfg.task_weight, rollout.task_dim)
    w_damp = _weight_matrix(cfg.damping_weight, n)
    w_acc = _weight_matrix(cfg.accel_weight, n)

    if cost_cache is not None and "vel_quad" in cost_cache:
        vel_quad = cost_cache["vel_quad"]
        acc_quad = cost_cache["acc_quad"]
        damp_big = cost_cache["damp_big"]
        acc_big = cost_cache["acc_big"]
    else:
        damp_big = np.kron(np.eye(steps), w_damp) if w_damp.any() else None
        acc_big = np.kron(np.eye(steps), w_acc) if w_acc.any() else None
        vel_quad = diff.vel_op.T @ damp_big @ diff.vel_op if damp_big is not None else None
        acc_quad = diff.acc_op.T @ acc_big @ diff.acc_op if acc_big is not None else None
        if cost_cache is not None:
            cost_cache.update(vel_quad=vel_quad, acc_quad=acc_quad,
                              damp_big=damp_big, acc_big=acc_big)

    hess = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for k in range(steps):
        blk = slice(k * n, (k + 1) * n)
        jk = rollout.j_stack[k]
        jtqj = jk.T @ w_task @ jk
        hess[blk, blk] += jtqj
        # first-order task error e(q) ~ err_hat - J (q - qhat): the target
        # vector keeps the nominal's own residual so the plan can beat it
        grad[blk] -= jk.T @ (w_task @ rollout.err_stack[k]) + jtqj @ rollout.q_hat[k]
    if vel_quad is not None:
        hess += vel_quad
        grad += diff.vel_op.T @ (damp_big @ diff.vel_off)
    if acc_quad is not None:
        hess += acc_quad
        grad += diff.acc_op.T @ (acc_big @ diff.acc_off)

    lb = np.tile(limits.q_min, steps)
    ub = np.tile(limits.q_max, steps)
    pin = rollout.q_hat[0] if q_pin is None else np.asarray(q_pin, dtype=float)
    lb[:n] = ub[:n] = pin
    vmax = np.tile(limits.v_max, steps)
    lin = -vmax - diff.vel_off
    uin = vmax - diff.vel_off

    if terminal is not None:
        eps_q = _tol_vector(cfg.terminal_pos_tol, n) * terminal.widen
        eps_v = _tol_vector(cfg.terminal_vel_tol, n) * terminal.widen
        last = slice(dim - n, dim)
        lb[last] = np.maximum(lb[last], terminal.q_ref - eps_q)
        ub[last] = np.minimum(ub[last], terminal.q_ref + eps_q)
        lin[last] = np.maximum(lin[last], terminal.qd_ref - eps_v - diff.vel_off[last])
        uin[last] = np.minimum(uin[last], terminal.qd_ref + eps_v - diff.vel_off[last])

    return qp.QpProblem(H=2.0 * hess, g=2.0 * grad, lb=lb, ub=ub,
                        Ain=diff.vel_op, lin=lin, uin=uin)


@dataclass
class KinStepResult:
    q_cmd: np.ndarray
    solution: qp.QpSolution | None
    rollout: NominalRollout
    degraded: bool
    solve_time: float
    plan: np.ndarray | None = None  # (horizon+1, n) solved position stack


class KinematicMpc:
    """Receding-horizon position controller; one instance per robot."""

    def __init__(self, model: RobotModel, cfg: KinematicMpcConfig,
                 tasks: tuple[TaskSpec, ...] | None = None,
                 limits: JointLimits | None = None):
        self.model = model
        self.cfg = cfg
        self.tasks = tasks
        self.limits = limits or model.limits
        self.solver = qp.QpSolver()
        self._hist1: np.ndarray | None = None  # q at t-1
        self._hist2: np.ndarray | None = None  # q at t-2
        self._last_cmd: np.ndarray | None = None
        self._warm: tuple[int, ...] | None = None
        self._widen_next = False
        self._cost_cache: dict = {}
        self.degraded_ticks = 0

    def reset(self):
        self._hist1 = self._hist2 = self._last_cmd = None
        self._warm = None
        self._widen_next = False
        self.degraded_ticks = 0

    def step(self, q_measured, traj: TaskTrajectory, tick: int) -> KinStepResult:
        """One control tick: returns the next commanded joint position.

        The plan continues the command signal (first block pinned to the
        previously applied command, difference history over past commands);
        the measured state feeds back through the IK rollout that the
        tracking cost linearizes around.
        """
        t0 = time.perf_counter()
        model = self.model
        cfg = self.cfg
        q_measured = model.check_q(q_measured)
        if self._hist1 is None:
            self._hist1 = q_measured.copy()
            self._hist2 = q_measured.copy()
            self._last_cmd = q_measured.copy()
        tasks = self.tasks if self.tasks is not None else traj.tasks

        window, includes_end = traj.window(tick, cfg.horizon)
        rollout = ik_rollout(model, q_measured, window, cfg.dt, cfg.svd_threshold, tasks)
        if "diff_matrices" not in self._cost_cache:
            self._cost_cache["diff_matrices"] = _diff_matrices(model.n, cfg.horizon, cfg.dt)
        diff = build_diff_ops(model.n, cfg.horizon, cfg.dt, self._hist1, self._hist2,
                              matrices=self._cost_cache["diff_matrices"])
        terminal = None
        if includes_end:
            widen = 10.0 if self._widen_next else 1.0
            terminal = TerminalTarget(q_ref=rollout.q_hat[-1], qd_ref=rollout.qd_hat[-1],
                                      widen=widen)
        try:
            problem = build_kin_qp(model, cfg, rollout, diff, self.limits, terminal=terminal,
                                   cost_cache=self._cost_cache, q_pin=self._last_cmd)
            solution = self.solver.solve(problem, warm_start=self._warm)
        except qp.QpDataError:
            solution = None  # crossed terminal boxes: trivially infeasible tick

        n = model.n
        if solution is not None and solution.status == qp.OPTIMAL:
            plan = solution.z_star.reshape(cfg.horizon + 1, n)
            q_cmd = plan[1]
            degraded = False
            self._warm = solution.active_set
            self._widen_next = False
        else:
            plan = None
            q_cmd = self._last_cmd
            degraded = True
            self.degraded_ticks += 1
            self._warm = None
            self._widen_next = True

        self._hist2 = self._hist1
        self._hist1 = self._last_cmd.copy()
        self._last_cmd = q_cmd.copy()
        return KinStepResult(
            q_cmd=q_cmd,
            solution=solution,
            rollout=rollout,
            degraded=degraded,
            solve_time=time.perf_counter() - t0,
            plan=plan,
        )
