"""Dynamic MPC for torque-controlled robots.

The plant model x = [q; qd], xdot = [qd; FD(q, qd, u)] is linearized along
an operational-space-control rollout and discretized with explicit Euler,
one affine stage per step. The QP is not condensed: it keeps every state
and input of the horizon as a variable, ordered stage by stage as
z = [u_0, x_1, u_1, x_2, ..., u_np-1, x_np] (in deviations from the
rollout), with one block row of equalities per stage,
x_{k+1} - A_k x_k - B_k u_k = r_k, torque/state boxes as bounds, and the
tracking cost expressed through the projected task Jacobians of the nominal.
In that order every dynamics row and every cost block stays within a band
of a few stages, so the solver's banded KKT factorization costs the same
per stage at any horizon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .dynamics import RigidBodyState, _mv, stacked_derivatives
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
    """Discrete stages x_{k+1} = A x_k + B u_k + r.

    One stage holds A (2n, 2n), B (2n, n) and r (2n,); a horizon stacks n_p
    of them along a leading stage axis.
    """

    A: np.ndarray
    B: np.ndarray
    r: np.ndarray


def linearize_stage(model: RobotModel, x_hat, u_hat, dt: float,
                    states=None, qdd=None) -> LinearizedStage:
    """Linearize the state equation around nominal points and discretize.

    Explicit Euler on the first-order model: A = I + dt df/dx, B = dt df/du,
    r = dt (f - df/dx x_hat - df/du u_hat). x_hat (2n,) and u_hat (n,) give
    one stage; (n_p, 2n) and (n_p, n) give a horizon of n_p stages, whose
    derivatives come from one batched pass, and a stacked LinearizedStage.
    states, when given, holds the chain state at each x_hat row (a
    rollout's own), whose mass matrix, factor and bias forces are reused
    instead of evaluated again; qdd, when given, holds the accelerations
    u_hat drives at each row (the rollout's own), which are then not solved
    again.
    """
    n = model.n
    x_hat = np.asarray(x_hat, dtype=float)
    single = x_hat.ndim == 1
    x_hat, u_hat = np.atleast_2d(x_hat, np.asarray(u_hat, dtype=float))
    n_p = x_hat.shape[0]
    if x_hat.shape != (n_p, 2 * n):
        raise ValueError(f"x_hat must have shape ({2 * n},) or (n_p, {2 * n})")
    if u_hat.shape != (n_p, n):
        raise ValueError(f"u_hat must hold one ({n},) row per x_hat row")
    q, qd = x_hat[:, :n], x_hat[:, n:]
    if states is None:
        states = [RigidBodyState(model, q[k], qd[k]) for k in range(n_p)]
    elif not (len(states) == n_p and all(st.model is model for st in states)
              and np.array_equal([st.q for st in states], q)
              and np.array_equal([st.qd for st in states], qd)):
        raise ValueError("states are not the chain states of this model at x_hat")
    if qdd is None:
        qdd = np.array([st.forward_dynamics(u) for st, u in zip(states, u_hat)])
    qdd = np.atleast_2d(np.asarray(qdd, dtype=float))
    if qdd.shape != (n_p, n):
        raise ValueError(f"qdd must hold one ({n},) row per x_hat row")
    der = stacked_derivatives(states, qdd)

    dfdx = np.zeros((n_p, 2 * n, 2 * n))
    dfdx[:, :n, n:] = np.eye(n)
    dfdx[:, n:, :n] = der.dqdd_dq
    dfdx[:, n:, n:] = der.dqdd_dqd
    dfdu = np.zeros((n_p, 2 * n, n))
    dfdu[:, n:, :] = der.dqdd_du
    f_val = np.concatenate([qd, qdd], axis=1)
    stage = LinearizedStage(
        A=np.eye(2 * n) + dt * dfdx,
        B=dt * dfdu,
        r=dt * (f_val - _mv(dfdx, x_hat) - _mv(dfdu, u_hat)),
    )
    return LinearizedStage(stage.A[0], stage.B[0], stage.r[0]) if single else stage


def build_prediction(stages: LinearizedStage, x_init) -> tuple[np.ndarray, np.ndarray]:
    """Stage dynamics x_{k+1} - A_k x_k - B_k u_k = r_k as banded equality rows.

    stages is a horizon of n_p stages stacked along their first axis, as
    linearize_stage returns it. Returns (eq_a, eq_b) over the stage-wise
    z = [u_0, x_1, u_1, x_2, ..., u_np-1, x_np] in absolute coordinates, one
    block row per stage written by slices; the known initial state enters
    the first right-hand side as A_0 x_init.
    """
    n_p, nx, nu = stages.B.shape
    if n_p < 1:
        raise ValueError("need at least one stage")
    ns = nu + nx
    eq_a = np.zeros((n_p * nx, n_p * ns))
    eq_b = stages.r.flatten()
    eq_b[:nx] += stages.A[0] @ np.asarray(x_init, dtype=float)
    eye = np.eye(nx)
    for k in range(n_p):
        row = slice(k * nx, (k + 1) * nx)
        if k:
            eq_a[row, k * ns - nx:k * ns] = -stages.A[k]
        eq_a[row, k * ns:k * ns + nu] = -stages.B[k]
        eq_a[row, k * ns + nu:(k + 1) * ns] = eye
    return eq_a, eq_b


@dataclass(frozen=True, eq=False)
class TerminalStateTarget:
    x_ref: np.ndarray
    widen: float = 1.0


def build_dyn_qp(cfg: DynamicMpcConfig, rollout: NominalRollout,
                 rows: tuple[np.ndarray, np.ndarray], limits: JointLimits,
                 terminal: TerminalStateTarget | None = None) -> qp.QpProblem:
    """Assemble the torque-MPC QP in deviations from the nominal rollout.

    The decision variable is z = [du_0, dx_1, du_1, dx_2, ..., du_np-1, dx_np]
    with dx_k = x_k - xhat_k and du_k = u_k - uhat_k, stage by stage.
    Deviation coordinates keep the solver's diagonal regularization centered
    on the nominal: with a zero input weight an absolute-variable QP would
    bias the torque plan toward zero (dropping gravity compensation),
    whereas here it only shrinks toward the operational-space rollout.
    Tracking weight acts on position deviations through the nominal's
    projected Jacobians, damping on absolute velocities, an optional weight
    on input deviations. The banded dynamics rows (eq_a, eq_b) of
    build_prediction, given in absolute coordinates, are shifted to
    deviations as eq_b - eq_a @ z_hat with z_hat the rollout in the same
    order; that right-hand side is the Euler-vs-rollout defect of each stage.
    """
    if rollout.x_hat is None or rollout.u_hat is None:
        raise ValueError("dynamic MPC needs a torque rollout (x_hat, u_hat)")
    n_p = rollout.q_hat.shape[0] - 1
    n = rollout.q_hat.shape[1]
    nx = 2 * n
    ns = n + nx
    eq_a, eq_b = rows
    if eq_a.shape != (n_p * nx, n_p * ns) or eq_b.shape != (n_p * nx,):
        raise ValueError("dynamics rows and rollout horizon disagree")
    w_task = _weight_matrix(cfg.task_weight, rollout.task_dim)
    w_damp = _weight_matrix(cfg.damping_weight, n)
    w_input = _weight_matrix(cfg.input_weight, n)

    dim = n_p * ns
    hess = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for k in range(1, n_p + 1):
        q_blk = slice(k * ns - nx, k * ns - n)
        v_blk = slice(k * ns - n, k * ns)
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
            u_blk = slice(k * ns, k * ns + n)
            hess[u_blk, u_blk] += w_input

    z_hat = np.concatenate([rollout.u_hat, rollout.x_hat[1:]], axis=1).ravel()
    eq_b = eq_b - eq_a @ z_hat

    x_lo = np.concatenate([limits.q_min - rollout.q_hat[1:],
                           -limits.v_max - rollout.qd_hat[1:]], axis=1)
    x_hi = np.concatenate([limits.q_max - rollout.q_hat[1:],
                           limits.v_max - rollout.qd_hat[1:]], axis=1)
    if terminal is not None:
        eps = _tol_vector(cfg.terminal_state_tol, nx) * terminal.widen
        dx_ref = terminal.x_ref - rollout.x_hat[-1]
        x_lo[-1] = np.maximum(x_lo[-1], dx_ref - eps)
        x_hi[-1] = np.minimum(x_hi[-1], dx_ref + eps)
    lb = np.concatenate([-limits.u_max - rollout.u_hat, x_lo], axis=1).ravel()
    ub = np.concatenate([limits.u_max - rollout.u_hat, x_hi], axis=1).ravel()

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
        stages = linearize_stage(model, rollout.x_hat[:-1], rollout.u_hat, cfg.dt,
                                 states=rollout.states[:-1], qdd=rollout.qdd_hat)
        rows = build_prediction(stages, x_measured)
        terminal = None
        if includes_end:
            widen = 10.0 if self._widen_next else 1.0
            terminal = TerminalStateTarget(x_ref=rollout.x_hat[-1], widen=widen)
        try:
            problem = build_dyn_qp(cfg, rollout, rows, self.limits, terminal=terminal)
            solution = self.solver.solve(problem, warm_start=self._warm)
        except qp.QpDataError:
            solution = None  # crossed terminal boxes: trivially infeasible tick

        fallback = np.clip(rollout.u_hat[0], -self.limits.u_max, self.limits.u_max)
        if solution is not None and solution.status == qp.OPTIMAL:
            # solution is in deviations from the rollout, stage by stage
            # [du_k, dx_k+1]; restore absolutes
            plan = solution.z_star.reshape(cfg.horizon, 3 * n)
            states = plan[:, n:] + rollout.x_hat[1:]
            inputs = plan[:, :n] + rollout.u_hat
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
