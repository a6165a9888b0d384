"""Dynamic MPC for torque-controlled robots.

The plant model x = [q; qd], xdot = [qd; FD(q, qd, u)] is linearized along
an operational-space-control rollout and discretized with explicit Euler,
one affine stage per step. The QP, posed in deviations from the rollout, is
not condensed: z = [du_0, dx_1, du_1, dx_2, ..., du_np-1, dx_np] keeps every
input and state of the horizon, stage by stage, with one block row of
equalities per stage (build_prediction's, which build_dyn_qp writes from
the stages as pinned general rows lin == Ain z == uin), torque/state boxes
as bounds, and the tracking cost expressed through the projected task
Jacobians of the nominal. In that order every dynamics row and every cost
block stays within a band of a few stages, so the solver's banded KKT
factorization costs the same per stage at any horizon. The rest of the
solve does not: Ain is dense, so the products with its rows, the residuals
and building the problem grow faster than the horizon (from h = 10 to 40,
QpProblem about x9 and the residuals x11, against x5 for the KKT solves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .dynamics import RigidBodyState, _finite, _mv, dynamics_derivatives
from .horizon import HorizonConfig, RecedingHorizon, hessian_band
from .nominal import NominalRollout, PostureSpec, osc_rollout
from .robot_model import JointLimits, RobotModel
from .trajgen import TaskTrajectory


@dataclass
class DynamicMpcConfig(HorizonConfig):
    input_weight: float = 0.0
    terminal_state_tol: float = 1e-2  # box around nominal x_N


@dataclass(frozen=True, eq=False)
class LinearizedStage:
    """Discrete stages x_{k+1} = A x_k + B u_k + r.

    One stage holds A (2n, 2n), B (2n, n) and r (2n,); a horizon stacks n_p
    of them along a leading stage axis.
    """

    A: np.ndarray
    B: np.ndarray
    r: np.ndarray


def linearize_stage(states, u_hat, dt: float, qdd=None) -> LinearizedStage:
    """Linearize the state equation at chain states and discretize.

    Explicit Euler on the first-order model: A = I + dt df/dx, B = dt df/du,
    r = dt (f - df/dx x_hat - df/du u_hat), with x_hat = [q; qd] read from
    the states. One RigidBodyState and an (n,) u_hat give one stage; n_p
    states and (n_p, n) inputs give n_p stages stacked along a leading axis,
    from one dynamics_derivatives pass. qdd, when given, holds the
    accelerations u_hat drives at each state (a rollout's own), which are
    then not solved again. Raises ValueError for an empty batch, or a u_hat
    of another shape or that is not finite.
    """
    single = isinstance(states, RigidBodyState)
    seq = (states,) if single else states
    if len(seq) == 0:
        raise ValueError("states is an empty batch; at least one state is needed")
    n = seq[0].model.n
    lead = () if single else (len(seq),)
    u_hat = np.asarray(u_hat, dtype=float)
    if u_hat.shape != lead + (n,):
        raise ValueError(f"u_hat must hold one ({n},) row per state, got shape {u_hat.shape}")
    _finite(u_hat, "u_hat")
    x_hat = np.concatenate([[st.q for st in seq], [st.qd for st in seq]], axis=1).reshape(lead + (2 * n,))
    if qdd is None:
        qdd = np.reshape([st.forward_dynamics(u) for st, u in zip(seq, u_hat.reshape(-1, n))], u_hat.shape)
    der = dynamics_derivatives(states, qdd)

    dfdx = np.zeros(lead + (2 * n, 2 * n))
    dfdx[..., :n, n:] = np.eye(n)
    dfdx[..., n:, :n] = der.dqdd_dq
    dfdx[..., n:, n:] = der.dqdd_dqd
    dfdu = np.zeros(lead + (2 * n, n))
    dfdu[..., n:, :] = der.dqdd_du
    f_val = np.concatenate([x_hat[..., n:], qdd], axis=-1)
    return LinearizedStage(A=np.eye(2 * n) + dt * dfdx, B=dt * dfdu,
                           r=dt * (f_val - _mv(dfdx, x_hat) - _mv(dfdu, u_hat)))


def build_prediction(stages: LinearizedStage, x_hat, u_hat) -> tuple[np.ndarray, np.ndarray]:
    """Stage dynamics in deviations from the rollout, as banded equality rows.

    stages is a horizon of n_p stages stacked along their first axis, as
    linearize_stage returns it, taken at the rollout's states x_hat
    (n_p+1, 2n) and inputs u_hat (n_p, n). Returns (eq_a, eq_b) over the
    stage-wise z = [du_0, dx_1, du_1, dx_2, ..., du_np-1, dx_np], one block
    row dx_{k+1} - A_k dx_k - B_k du_k = d_k per stage, with d_k = A_k
    x_hat_k + B_k u_hat_k + r_k - x_hat_{k+1}, the rollout's defect against
    the Euler stage. dx_0 = 0: x_hat_0 is the known initial state (a
    rollout starts at the measured one). Raises ValueError for an empty
    horizon, or an x_hat or u_hat of another shape or horizon.
    """
    n_p, nx, nu = stages.B.shape
    if n_p < 1:
        raise ValueError("need at least one stage")
    x_hat, u_hat = np.asarray(x_hat, dtype=float), np.asarray(u_hat, dtype=float)
    if x_hat.shape != (n_p + 1, nx) or u_hat.shape != (n_p, nu):
        raise ValueError(f"x_hat must be ({n_p + 1}, {nx}) and u_hat ({n_p}, {nu}) for a "
                         f"horizon of {n_p} stages, got {x_hat.shape} and {u_hat.shape}")
    eq_a = np.zeros((n_p, nx, n_p, nu + nx))  # [stage row, row, stage column, column]
    eq_b = (_mv(stages.A, x_hat[:-1]) + _mv(stages.B, u_hat) + stages.r - x_hat[1:]).ravel()
    k = np.arange(n_p)
    eq_a[k[1:], :, k[:-1], nu:] = -stages.A[1:]
    eq_a[k, :, k, :nu] = -stages.B
    eq_a[k, :, k, nu:] = np.eye(nx)
    return eq_a.reshape(n_p * nx, n_p * (nu + nx)), eq_b


def build_dyn_qp(cfg: DynamicMpcConfig, rollout: NominalRollout, stages: LinearizedStage,
                 limits: JointLimits, terminal_widen: float | None = None) -> qp.QpProblem:
    """Assemble the torque-MPC QP in deviations from the nominal rollout.

    The decision variable is z = [du_0, dx_1, du_1, dx_2, ..., du_np-1, dx_np]
    with dx_k = x_k - xhat_k and du_k = u_k - uhat_k, stage by stage; the
    rollout's linearized stages give build_prediction's dynamics rows over
    it, pinned general rows (Ain = eq_a, lin = uin = eq_b): the QP's first
    n_p * 2n canonical rows, held at equality.
    Deviation coordinates keep the solver's diagonal regularization centered
    on the nominal: with a zero input weight an absolute-variable QP would
    bias the torque plan toward zero (dropping gravity compensation),
    whereas here it only shrinks toward the operational-space rollout.
    Tracking weight acts on position deviations through the nominal's
    projected Jacobians, damping on absolute velocities, the input weight
    on input deviations. terminal_widen, unless None, adds a box of that
    many tolerances around the rollout's end state. H is the lower band of
    S + S' for the cost's Hessian S from hessian_band, n - 1 diagonals
    below the main one (a stage's task block).
    """
    if rollout.x_hat is None or rollout.u_hat is None:
        raise ValueError("dynamic MPC needs a torque rollout (x_hat, u_hat)")
    eq_a, eq_b = build_prediction(stages, rollout.x_hat, rollout.u_hat)
    n_p, n = rollout.u_hat.shape
    nx, ns = 2 * n, 3 * n

    dim = n_p * ns
    grad = np.zeros(dim)
    # stage k holds du_k, then dx_k+1's position and velocity parts
    u_at = np.arange(n_p)[:, None] * ns + np.arange(n)
    q_at, v_at = u_at + n, u_at + nx
    jac_t = rollout.j_stack[1:].transpose(0, 2, 1)
    jtj = np.matmul(cfg.task_weight * jac_t, rollout.j_stack[1:])  # one block per stage
    hess = hessian_band(jtj, n, ns, dim, n - 1)
    # task error to first order: err_hat_k - J dq; the gradient drives the
    # plan to shrink the nominal's own residual error
    grad[q_at] -= np.matmul(jac_t, (cfg.task_weight * rollout.err_stack[1:])[:, :, None])[:, :, 0]
    # the input weight acts on the deviation from the nominal torque, so it
    # regularizes the plan without taxing gravity compensation
    hess[0, u_at] = 2.0 * cfg.input_weight
    hess[0, v_at] = 2.0 * cfg.damping_weight
    grad[v_at] += cfg.damping_weight * rollout.qd_hat[1:]  # damping acts on absolute velocity

    x_lo = np.concatenate([limits.q_min, -limits.v_max]) - rollout.x_hat[1:]
    x_hi = np.concatenate([limits.q_max, limits.v_max]) - rollout.x_hat[1:]
    if terminal_widen is not None:
        eps = cfg.terminal_state_tol * terminal_widen
        x_lo[-1] = np.maximum(x_lo[-1], -eps)
        x_hi[-1] = np.minimum(x_hi[-1], eps)
    lb = np.concatenate([-limits.u_max - rollout.u_hat, x_lo], axis=1).ravel()
    ub = np.concatenate([limits.u_max - rollout.u_hat, x_hi], axis=1).ravel()

    return qp.QpProblem(H=hess, g=2.0 * grad, lb=lb, ub=ub, Ain=eq_a, lin=eq_b, uin=eq_b)


@dataclass
class DynStepResult:
    u_cmd: np.ndarray
    solution: qp.QpSolution | None
    rollout: NominalRollout
    degraded: bool
    plan_states: np.ndarray | None = None  # (n_p, 2n)
    plan_inputs: np.ndarray | None = None  # (n_p, n)


class DynamicMpc(RecedingHorizon):
    """Receding-horizon torque controller; one instance per robot."""

    def __init__(self, model: RobotModel, cfg: DynamicMpcConfig,
                 posture: PostureSpec | None = None):
        super().__init__(model, cfg)
        self.posture = posture

    def step(self, state: RigidBodyState, traj: TaskTrajectory, tick: int) -> DynStepResult:
        """One control tick: returns the torque command for the next interval.

        The OSC rollout starts from the measured chain state, which must be
        a finite RigidBodyState of this model, along traj, which must be
        sampled at the config's dt (else ValueError). A degraded tick
        applies the rollout's first torque, clipped to the limits.
        """
        model, cfg, n = self.model, self.cfg, self.model.n
        rot_t, pos_t, twists, includes_end = self._window(state, traj, tick)
        rollout = osc_rollout(state, rot_t, pos_t, cfg.dt, cfg.svd_threshold, traj.tasks,
                              posture=self.posture, twists=twists)
        stages = linearize_stage(rollout.states, rollout.u_hat, cfg.dt, qdd=rollout.qdd_hat)
        solution, degraded = self._solve(
            lambda widen: build_dyn_qp(cfg, rollout, stages, model.limits, terminal_widen=widen),
            includes_end)
        states = inputs = None
        if not degraded:
            # solution is in deviations from the rollout, stage by stage
            # [du_k, dx_k+1]; restore absolutes
            plan = solution.z_star.reshape(cfg.horizon, 3 * n)
            states = plan[:, n:] + rollout.x_hat[1:]
            inputs = plan[:, :n] + rollout.u_hat
        u_max = model.limits.u_max
        u_cmd = np.clip(rollout.u_hat[0] if degraded else inputs[0], -u_max, u_max)
        return DynStepResult(u_cmd=u_cmd, solution=solution, rollout=rollout, degraded=degraded,
                             plan_states=states, plan_inputs=inputs)
