"""Dynamic MPC for torque-controlled robots.

The plant model x = [q; qd], xdot = [qd; FD(q, qd, u)] is linearized along
an operational-space-control rollout, discretized with explicit Euler, and
stacked into prediction matrices. The QP is not condensed: it keeps every
state and input of the horizon as a variable, z = [x_1..x_np; u_0..u_np-1]
(in deviations from the rollout), with the dynamics as equality rows,
torque/state boxes as bounds, and the tracking cost expressed through the
projected task Jacobians of the nominal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .dynamics import RigidBodyState
from .mpc_kinematic import _tol_vector, _weight_matrix
from .nominal import NominalRollout, PostureSpec, TaskSpec, osc_rollout
from .robot_model import JointLimits, RobotModel
from .trajgen import TaskTrajectory


@dataclass
class DynamicMpcConfig:
    horizon: int = 10
    dt: float = 1e-3
    task_weight: np.ndarray | float = 10.0
    damping_weight: np.ndarray | float = 1e-4
    input_weight: np.ndarray | float = 0.0
    terminal_state_tol: np.ndarray | float = 1e-2  # box around nominal x_N
    svd_threshold: float = 1e-2

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True, eq=False)
class LinearizedStage:
    """One discrete stage x_{k+1} = A x_k + B u_k + r."""

    A: np.ndarray
    B: np.ndarray
    r: np.ndarray


def linearize_stage(model: RobotModel, x_hat, u_hat, dt: float) -> LinearizedStage:
    """Linearize the state equation around one nominal point and discretize.

    Explicit Euler on the first-order model: A = I + dt df/dx, B = dt df/du,
    r = dt (f - df/dx x_hat - df/du u_hat).
    """
    n = model.n
    x_hat = np.asarray(x_hat, dtype=float)
    u_hat = model.check_q(u_hat, "u_hat")
    if x_hat.shape != (2 * n,):
        raise ValueError(f"x_hat must have shape ({2 * n},)")
    qd = x_hat[n:]
    st = RigidBodyState(model, x_hat[:n], qd)
    qdd = st.forward_dynamics(u_hat)
    der = st.derivatives(qdd)

    dfdx = np.zeros((2 * n, 2 * n))
    dfdx[:n, n:] = np.eye(n)
    dfdx[n:, :n] = der.dqdd_dq
    dfdx[n:, n:] = der.dqdd_dqd
    dfdu = np.zeros((2 * n, n))
    dfdu[n:, :] = der.dqdd_du
    f_val = np.concatenate([qd, qdd])
    return LinearizedStage(
        A=np.eye(2 * n) + dt * dfdx,
        B=dt * dfdu,
        r=dt * (f_val - dfdx @ x_hat - dfdu @ u_hat),
    )


@dataclass(frozen=True, eq=False)
class PredictionStack:
    """Stacked propagation x_stack = free_response @ x_i + input_map @ u + residual_map @ r."""

    free_response: np.ndarray  # ((n_p+1)*nx, nx)
    input_map: np.ndarray  # ((n_p+1)*nx, n_p*nu)
    residual_map: np.ndarray  # ((n_p+1)*nx, n_p*nx)
    x_init: np.ndarray
    residuals: np.ndarray  # (n_p, nx) stacked stage offsets
    stages: tuple[LinearizedStage, ...] = ()

    @property
    def horizon(self) -> int:
        return self.residuals.shape[0]

    def defects(self, x_hat: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
        """Per-stage mismatch A_k xhat_k + B_k uhat_k + r_k - xhat_{k+1}."""
        out = np.empty_like(self.residuals)
        for k, st in enumerate(self.stages):
            out[k] = st.A @ x_hat[k] + st.B @ u_hat[k] + st.r - x_hat[k + 1]
        return out


def build_prediction(stages: list[LinearizedStage], x_init) -> PredictionStack:
    """Products of the stage transition matrices arranged into stacked form."""
    n_p = len(stages)
    if n_p < 1:
        raise ValueError("need at least one stage")
    nx = stages[0].A.shape[0]
    nu = stages[0].B.shape[1]
    x_init = np.asarray(x_init, dtype=float)

    # phi[j][s] = A_{j-1} ... A_s (identity when j == s), for 0 <= s <= j <= n_p
    phi = [[None] * (n_p + 1) for _ in range(n_p + 1)]
    for s in range(n_p + 1):
        phi[s][s] = np.eye(nx)
        for j in range(s + 1, n_p + 1):
            phi[j][s] = stages[j - 1].A @ phi[j - 1][s]

    free = np.vstack([phi[j][0] for j in range(n_p + 1)])
    input_map = np.zeros(((n_p + 1) * nx, n_p * nu))
    residual_map = np.zeros(((n_p + 1) * nx, n_p * nx))
    for j in range(n_p + 1):
        row = slice(j * nx, (j + 1) * nx)
        for s in range(min(j, n_p)):
            input_map[row, s * nu:(s + 1) * nu] = phi[j][s + 1] @ stages[s].B
            residual_map[row, s * nx:(s + 1) * nx] = phi[j][s + 1]
    residuals = np.vstack([st.r for st in stages])
    return PredictionStack(
        free_response=free,
        input_map=input_map,
        residual_map=residual_map,
        x_init=x_init,
        residuals=residuals,
        stages=tuple(stages),
    )


def propagate(stack: PredictionStack, u_seq: np.ndarray) -> np.ndarray:
    """Stacked states for an input sequence (testing convenience)."""
    return (
        stack.free_response @ stack.x_init
        + stack.input_map @ u_seq.ravel()
        + stack.residual_map @ stack.residuals.ravel()
    )


@dataclass(frozen=True, eq=False)
class TerminalStateTarget:
    x_ref: np.ndarray
    widen: float = 1.0


def build_dyn_qp(cfg: DynamicMpcConfig, rollout: NominalRollout, stack: PredictionStack,
                 limits: JointLimits, terminal: TerminalStateTarget | None = None) -> qp.QpProblem:
    """Assemble the torque-MPC QP in deviations from the nominal rollout.

    The decision variable is z = [dx_1..dx_np; du_0..du_np-1] with
    dx_k = x_k - xhat_k and du_k = u_k - uhat_k. Deviation coordinates keep
    the solver's diagonal regularization centered on the nominal: with a
    zero input weight an absolute-variable stack would bias the torque plan
    toward zero (dropping gravity compensation), whereas here it only
    shrinks toward the operational-space rollout. Tracking weight acts on
    position deviations through the nominal's projected Jacobians, damping
    on absolute velocities, an optional weight on absolute inputs; the
    stacked dynamics enter as equality rows whose right-hand side carries
    the Euler-vs-rollout defect.
    """
    n_p = stack.horizon
    nx = stack.free_response.shape[1]
    n = nx // 2
    if rollout.q_hat.shape[0] != n_p + 1:
        raise ValueError("rollout and stack horizons disagree")
    if rollout.x_hat is None or rollout.u_hat is None:
        raise ValueError("dynamic MPC needs a torque rollout (x_hat, u_hat)")
    w_task = _weight_matrix(cfg.task_weight, rollout.task_dim)
    w_damp = _weight_matrix(cfg.damping_weight, n)
    w_input = _weight_matrix(cfg.input_weight, n)

    dim = n_p * nx + n_p * n
    hess = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for k in range(1, n_p + 1):
        q_blk = slice((k - 1) * nx, (k - 1) * nx + n)
        v_blk = slice((k - 1) * nx + n, k * nx)
        jk = rollout.j_stack[k]
        hess[q_blk, q_blk] += jk.T @ w_task @ jk
        # task error to first order: err_hat_k - J dq; the gradient drives
        # the plan to shrink the nominal's own residual error
        grad[q_blk] -= jk.T @ (w_task @ rollout.err_stack[k])
        hess[v_blk, v_blk] += w_damp
        grad[v_blk] += w_damp @ rollout.qd_hat[k]  # damping acts on absolute velocity
    if w_input.any():
        # input weight acts on the deviation from the nominal torque, so it
        # regularizes the plan without taxing gravity compensation
        for k in range(n_p):
            u_blk = slice(n_p * nx + k * n, n_p * nx + (k + 1) * n)
            hess[u_blk, u_blk] += w_input

    # dynamics equalities over the state deviations (initial deviation is known)
    defects = stack.defects(rollout.x_hat, rollout.u_hat)
    dx_init = stack.x_init - rollout.x_hat[0]
    eq_a = np.zeros((n_p * nx, dim))
    eq_a[:, : n_p * nx] = np.eye(n_p * nx)
    eq_a[:, n_p * nx:] = -stack.input_map[nx:, :]
    eq_b = stack.free_response[nx:] @ dx_init + stack.residual_map[nx:] @ defects.ravel()

    lb = np.empty(dim)
    ub = np.empty(dim)
    for k in range(n_p):
        q_blk = slice(k * nx, k * nx + n)
        v_blk = slice(k * nx + n, (k + 1) * nx)
        lb[q_blk] = limits.q_min - rollout.q_hat[k + 1]
        ub[q_blk] = limits.q_max - rollout.q_hat[k + 1]
        lb[v_blk] = -limits.v_max - rollout.qd_hat[k + 1]
        ub[v_blk] = limits.v_max - rollout.qd_hat[k + 1]
        u_blk = slice(n_p * nx + k * n, n_p * nx + (k + 1) * n)
        lb[u_blk] = -limits.u_max - rollout.u_hat[k]
        ub[u_blk] = limits.u_max - rollout.u_hat[k]

    if terminal is not None:
        eps = _tol_vector(cfg.terminal_state_tol, nx) * terminal.widen
        last = slice((n_p - 1) * nx, n_p * nx)
        dx_ref = terminal.x_ref - rollout.x_hat[-1]
        lb[last] = np.maximum(lb[last], dx_ref - eps)
        ub[last] = np.minimum(ub[last], dx_ref + eps)

    return qp.QpProblem(H=2.0 * hess, g=2.0 * grad, Aeq=eq_a, beq=eq_b, lb=lb, ub=ub)


@dataclass
class DynStepResult:
    u_cmd: np.ndarray
    solution: qp.QpSolution | None
    rollout: NominalRollout
    degraded: bool
    solve_time: float
    plan_states: np.ndarray | None = None  # (n_p, 2n)
    plan_inputs: np.ndarray | None = None  # (n_p, n)


class DynamicMpc:
    """Receding-horizon torque controller; one instance per robot."""

    def __init__(self, model: RobotModel, cfg: DynamicMpcConfig,
                 tasks: tuple[TaskSpec, ...] | None = None,
                 posture: PostureSpec | None = None,
                 limits: JointLimits | None = None):
        self.model = model
        self.cfg = cfg
        self.tasks = tasks
        self.posture = posture
        self.limits = limits or model.limits
        self.solver = qp.QpSolver()
        self._warm: tuple[int, ...] | None = None
        self._widen_next = False
        self.degraded_ticks = 0

    def reset(self):
        self._warm = None
        self._widen_next = False
        self.degraded_ticks = 0

    def step(self, x_measured, traj: TaskTrajectory, tick: int) -> DynStepResult:
        """One control tick: returns the torque command for the next interval."""
        t0 = time.perf_counter()
        model = self.model
        cfg = self.cfg
        n = model.n
        x_measured = np.asarray(x_measured, dtype=float)
        if x_measured.shape != (2 * n,):
            raise ValueError(f"x_measured must have shape ({2 * n},)")
        tasks = self.tasks if self.tasks is not None else traj.tasks

        window, includes_end = traj.window(tick, cfg.horizon)
        rollout = osc_rollout(model, x_measured, window, cfg.dt, cfg.svd_threshold,
                              tasks, posture=self.posture)
        stages = [linearize_stage(model, rollout.x_hat[k], rollout.u_hat[k], cfg.dt)
                  for k in range(cfg.horizon)]
        stack = build_prediction(stages, x_measured)
        terminal = None
        if includes_end:
            widen = 10.0 if self._widen_next else 1.0
            terminal = TerminalStateTarget(x_ref=rollout.x_hat[-1], widen=widen)
        try:
            problem = build_dyn_qp(cfg, rollout, stack, self.limits, terminal=terminal)
            solution = self.solver.solve(problem, warm_start=self._warm)
        except qp.QpDataError:
            solution = None  # crossed terminal boxes: trivially infeasible tick

        nx = 2 * n
        fallback = np.clip(rollout.u_hat[0], -self.limits.u_max, self.limits.u_max)
        if solution is not None and solution.status == qp.OPTIMAL:
            # solution is in deviations from the rollout; restore absolutes
            states = solution.z_star[: cfg.horizon * nx].reshape(cfg.horizon, nx) + rollout.x_hat[1:]
            inputs = solution.z_star[cfg.horizon * nx:].reshape(cfg.horizon, n) + rollout.u_hat
            u_cmd = np.clip(inputs[0], -self.limits.u_max, self.limits.u_max)
            degraded = False
            self._warm = solution.active_set
            self._widen_next = False
        else:
            states = inputs = None
            u_cmd = fallback
            degraded = True
            self.degraded_ticks += 1
            self._warm = None
            self._widen_next = True
        return DynStepResult(
            u_cmd=u_cmd,
            solution=solution,
            rollout=rollout,
            degraded=degraded,
            solve_time=time.perf_counter() - t0,
            plan_states=states,
            plan_inputs=inputs,
        )
