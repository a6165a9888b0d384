import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from armmpc import load_bundled_model, mpc_dynamic, qp, simulator
from armmpc.checks import lower_band
from armmpc.dynamics import RigidBodyState, bias_forces, dynamics_derivatives, forward_dynamics
from armmpc.kinematics import forward_kinematics
from armmpc.mpc_dynamic import (
    DynamicMpc,
    DynamicMpcConfig,
    LinearizedStage,
    build_dyn_qp,
    build_prediction,
    linearize_stage,
)
from armmpc.nominal import default_posture, default_task_hierarchy, osc_rollout, osc_torque
from armmpc.trajgen import TaskTrajectory

from conftest import is_dual_step, random_config, recorded_builds, repeat_pose


def random_state(model, rng, vel_scale=0.5):
    q = random_config(model, rng)
    qd = vel_scale * rng.standard_normal(model.n)
    return np.concatenate([q, qd])


def state_at(model, x):
    """The chain state at x = [q; qd]."""
    return RigidBodyState(model, x[:model.n], x[model.n:])


def test_linearize_affine_identity(desk_model, rng):
    # the discrete affine model reproduces the nominal's explicit Euler step
    x_hat = random_state(desk_model, rng)
    u_hat = 10.0 * rng.standard_normal(6)
    dt = 1e-3
    st = linearize_stage(state_at(desk_model, x_hat), u_hat, dt=dt)
    qdd = forward_dynamics(desk_model, x_hat[:6], x_hat[6:], u_hat)
    euler = x_hat + dt * np.concatenate([x_hat[6:], qdd])
    np.testing.assert_allclose(st.A @ x_hat + st.B @ u_hat + st.r, euler, atol=1e-12)


def test_linearize_block_structure(desk_model, rng):
    x_hat = random_state(desk_model, rng)
    u_hat = rng.standard_normal(6)
    dt = 1e-3
    st = linearize_stage(state_at(desk_model, x_hat), u_hat, dt=dt)
    np.testing.assert_allclose(st.A[:6, :6], np.eye(6), atol=1e-15)
    np.testing.assert_allclose(st.A[:6, 6:], dt * np.eye(6), atol=1e-15)
    np.testing.assert_allclose(st.B[:6, :], 0.0, atol=1e-15)


def test_linearize_pendulum_symbolic(gravity_pendulum):
    # d(qdd)/dq at rest = -(g/l) cos(theta) for the lifted pendulum
    theta = 0.3
    x_hat = np.array([theta, 0.0])
    u_hat = np.array([9.81 * np.cos(theta)])  # static hold
    st = linearize_stage(state_at(gravity_pendulum, x_hat), u_hat, dt=1e-3)
    dfdq = (st.A[1, 0]) / 1e-3  # lower-left of continuous jacobian
    assert dfdq == pytest.approx(9.81 * np.sin(theta), abs=1e-6)


def test_linearization_second_order_remainder(desk_model, rng):
    x_hat = random_state(desk_model, rng, vel_scale=0.2)
    u_hat = bias_forces(desk_model, x_hat[:6], x_hat[6:])
    dt = 1e-3
    st = linearize_stage(state_at(desk_model, x_hat), u_hat, dt=dt)

    def nonlinear_step(x):
        qdd = forward_dynamics(desk_model, x[:6], x[6:], u_hat)
        return x + dt * np.concatenate([x[6:], qdd])

    rng2 = np.random.default_rng(7)
    direction = rng2.standard_normal(12)
    direction /= np.linalg.norm(direction)
    errs = []
    mags = np.logspace(-5, -2, 7)
    for mag in mags:
        x_pert = x_hat + mag * direction
        lin = st.A @ x_pert + st.B @ u_hat + st.r
        errs.append(np.linalg.norm(nonlinear_step(x_pert) - lin))
    slope = np.polyfit(np.log(mags), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1


@pytest.mark.parametrize("kind, n_p", [("frozen", 3), ("random", 1), ("random", 5),
                                       ("random", 0)])
def test_prediction_rows_hold_along_stage_rollout(rng, kind, n_p):
    nx, nu = 6, 3
    if kind == "frozen":
        stages = LinearizedStage(A=np.tile(np.eye(nx), (n_p, 1, 1)), B=np.zeros((n_p, nx, nu)),
                                 r=np.zeros((n_p, nx)))
    else:
        stages = LinearizedStage(A=np.eye(nx) + 0.1 * rng.standard_normal((n_p, nx, nx)),
                                 B=rng.standard_normal((n_p, nx, nu)),
                                 r=0.1 * rng.standard_normal((n_p, nx)))
    x_hat = rng.standard_normal((n_p + 1, nx))  # a nominal that need not obey the stages
    u_hat = rng.standard_normal((n_p, nu))
    if n_p == 0:
        with pytest.raises(ValueError):
            build_prediction(stages, x_hat, u_hat)
        return
    du = rng.standard_normal((n_p, nu))
    # propagate the stages from the nominal's start, then take deviations
    dx = []
    x = x_hat[0]
    for k, (a, b, r) in enumerate(zip(stages.A, stages.B, stages.r)):
        x = a @ x + b @ (u_hat[k] + du[k]) + r
        dx.append(x - x_hat[k + 1])
    dx = np.array(dx)
    eq_a, eq_b = build_prediction(stages, x_hat, u_hat)
    assert eq_a.shape == (n_p * nx, n_p * (nx + nu))
    # z is stage-wise: [du_0, dx_1, du_1, dx_2, ...], and dx_0 = 0
    z = np.concatenate([du, dx], axis=1).ravel()
    np.testing.assert_allclose(eq_a @ z, eq_b, rtol=0.0, atol=1e-12)
    # the rows pin the state deviations: given du they reproduce the recursion
    x_cols = (np.arange(n_p * (nx + nu)) % (nx + nu)) >= nu
    pinned = np.linalg.solve(eq_a[:, x_cols], eq_b - eq_a[:, ~x_cols] @ du.ravel())
    np.testing.assert_allclose(pinned, dx.ravel(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("x_rows, u_rows", [(2, 2), (3, 1), (3, 3)])
def test_prediction_rejects_nominal_of_another_horizon(rng, x_rows, u_rows):
    # 2 stages need 3 nominal states and 2 inputs; a 2-row x_hat would
    # broadcast x_hat[:-1] over both stages without this check
    nx, nu, n_p = 4, 2, 2
    stages = LinearizedStage(A=np.eye(nx) + 0.1 * rng.standard_normal((n_p, nx, nx)),
                             B=rng.standard_normal((n_p, nx, nu)),
                             r=0.1 * rng.standard_normal((n_p, nx)))
    with pytest.raises(ValueError, match="x_hat must be"):
        build_prediction(stages, rng.standard_normal((x_rows, nx)),
                         rng.standard_normal((u_rows, nu)))


def test_prediction_defects_of_an_osc_rollout(desk_model, rng):
    # the rollout steps semi-implicitly, the stages explicitly: per stage the
    # velocity rows agree and the position rows differ by -dt^2 qdd_hat
    cfg, roll, stages = off_rest_stages(desk_model, rng, 10)
    _, eq_b = build_prediction(stages, roll.x_hat, roll.u_hat)
    defect = eq_b.reshape(cfg.horizon, 2 * desk_model.n)
    np.testing.assert_allclose(defect[:, desk_model.n:], 0.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(defect[:, :desk_model.n], -cfg.dt**2 * roll.qdd_hat,
                               rtol=0.0, atol=1e-14)


def equilibrium_setup(model, rng):
    q0 = random_config(model, rng)
    pose = forward_kinematics(model, q0)
    x0 = np.concatenate([q0, np.zeros(model.n)])
    traj = TaskTrajectory(dt=1e-3, poses=(pose,) * 40, tasks=default_task_hierarchy())
    return q0, x0, traj


def test_dyn_qp_equilibrium_fixed_point(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, task_weight=10.0, damping_weight=0.0,
                           input_weight=0.0)
    rot_t, pos_t, twists, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(state_at(desk_model, x0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                       traj.tasks, posture=default_posture(q0), twists=twists)
    stages = linearize_stage(roll.states, roll.u_hat, cfg.dt)
    problem = build_dyn_qp(cfg, roll, stages, desk_model.limits)
    sol = qp.QpSolver().solve(problem)
    assert sol.status == qp.OPTIMAL
    # deviations from the equilibrium nominal vanish
    np.testing.assert_allclose(sol.z_star, 0.0, atol=1e-7)
    with pytest.raises(ValueError, match="horizon"):
        short = linearize_stage(roll.states[:-1], roll.u_hat[:-1], cfg.dt)
        build_dyn_qp(cfg, roll, short, desk_model.limits)


def test_dyn_qp_carries_torque_limits(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=3, dt=1e-3)
    rot_t, pos_t, twists, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(state_at(desk_model, x0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                       traj.tasks, posture=default_posture(q0), twists=twists)
    stages = linearize_stage(roll.states, roll.u_hat, cfg.dt)
    problem = build_dyn_qp(cfg, roll, stages, desk_model.limits)
    # bounds are deviations; adding the nominal back recovers the physical limits
    u_max = desk_model.limits.u_max
    np.testing.assert_allclose(u_max, [239.0, 239.0, 124.5, 32.0, 40.96, 25.6])
    for k in range(cfg.horizon):
        blk = slice(k * 18, k * 18 + 6)  # u_k leads stage k of z
        np.testing.assert_allclose(problem.ub[blk] + roll.u_hat[k], u_max, atol=1e-12)
        np.testing.assert_allclose(problem.lb[blk] + roll.u_hat[k], -u_max, atol=1e-12)


def off_rest_stages(model, rng, horizon):
    x0, traj = off_rest_rollout(model, rng, horizon)
    cfg = DynamicMpcConfig(horizon=horizon, dt=1e-3)
    rot_t, pos_t, twists, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(state_at(model, x0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                       traj.tasks, posture=default_posture(x0[:model.n]), twists=twists)
    stages = linearize_stage(roll.states, roll.u_hat, cfg.dt)
    return cfg, roll, stages


def dyn_problem(model, rng, horizon):
    cfg, roll, stages = off_rest_stages(model, rng, horizon)
    return build_dyn_qp(cfg, roll, stages, model.limits)


def test_dyn_qp_equality_rows_are_block_banded(desk_model, rng):
    # z = [du_0, dx_1, du_1, dx_2, ...]: stage k's rows touch only dx_k, du_k
    # and dx_{k+1}, which are contiguous, and hold the identity on dx_{k+1}.
    # They are pinned general rows, the QP's first n_eq canonical rows, the
    # ids that the warm sets carried across ticks name
    problem = dyn_problem(desk_model, rng, 10)
    nx, n, n_p = 12, 6, 10
    ns = nx + n
    assert problem.Ain.shape == (n_p * nx, n_p * ns)
    np.testing.assert_array_equal(problem.lin, problem.uin)
    structure = qp.expand_constraints(problem)
    assert structure.n_eq == n_p * nx
    np.testing.assert_array_equal(structure.src[:structure.n_eq], n_p * ns + np.arange(n_p * nx))
    np.testing.assert_array_equal(structure.sign[:structure.n_eq], 1.0)
    for k in range(n_p):
        row = problem.Ain[k * nx:(k + 1) * nx]
        lo = max(k * ns - nx, 0)  # dx_k (dx_0 = 0 is not in z)
        hi = (k + 1) * ns
        assert not row[:, :lo].any() and not row[:, hi:].any(), f"stage {k}"
        np.testing.assert_array_equal(row[:, hi - nx:hi], np.eye(nx))
        assert row[:, k * ns:k * ns + n].any()  # -B_k on u_k


def test_dyn_qp_band_is_the_lower_band_of_s_plus_s_transposed():
    # a dense reference from the same rollout: S holds each stage's weighted
    # J'J block on dx's position part and the input and damping weights on
    # the diagonal, and the builder's band is that of S + S', entry for
    # entry, with nothing of S + S' outside it; from the rest start on
    for ((cfg, rollout, _, _), _), problem in recorded_builds(
            mpc_dynamic, "build_dyn_qp", "payload_pick_place", "dyn_mpc", "rs007n", 12):
        n_p, n = rollout.u_hat.shape
        dim = n_p * 3 * n
        s = np.zeros((dim, dim))
        for k, jac in enumerate(rollout.j_stack[1:]):
            u, q, v = (k * 3 * n + i * n + np.arange(n) for i in range(3))
            s[np.ix_(q, q)] = (cfg.task_weight * jac.T) @ jac
            s[u, u], s[v, v] = cfg.input_weight, cfg.damping_weight
        assert problem.H.shape == (n, dim)  # a stage's J'J block
        np.testing.assert_array_equal(problem.H, lower_band(s + s.T, n - 1))
        assert not np.tril(s + s.T, -n).any()


def test_dyn_qp_kkt_band_does_not_grow_with_horizon(desk_model, rng):
    # under the solver's order the KKT band of the dynamics rows (and of
    # every active bound) has one width at any horizon: 31, each row placed
    # before the middle of its span
    widths = []
    for horizon in (5, 10, 20):
        problem = dyn_problem(desk_model, rng, horizon)
        rows = qp.expand_constraints(problem)  # the dynamics rows are all its general rows
        band = qp._band_layout(problem.H.shape[0] - 1, problem.dim, rows.first.tobytes(),
                               rows.last.tobytes())
        widths.append(band.width)
    assert widths == [31, 31, 31]


def test_dyn_step_equilibrium_returns_bias(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, task_weight=10.0, damping_weight=1e-4)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(state_at(desk_model, x0), traj, 0)
    assert not res.degraded
    np.testing.assert_allclose(res.u_cmd, bias_forces(desk_model, q0, np.zeros(6)), atol=1e-6)


def test_dyn_step_commands_within_limits(desk_model, rng):
    # aggressive far target: command must stay inside the torque box
    q0 = random_config(desk_model, rng)
    x0 = np.concatenate([q0, np.zeros(6)])
    far = forward_kinematics(desk_model, q0 + 0.4 * rng.standard_normal(6))
    traj = TaskTrajectory(dt=1e-3, poses=(far,) * 30, tasks=default_task_hierarchy())
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, task_weight=1e4, damping_weight=1e-4)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    u_max = desk_model.limits.u_max
    for tick in range(3):
        res = ctl.step(state_at(desk_model, x0), traj, tick)
        assert np.all(np.abs(res.u_cmd) <= u_max + 1e-8)


def test_dyn_step_solved_plan_satisfies_dynamics_rows(desk_model, rng):
    q0, _, traj = equilibrium_setup(desk_model, rng)
    x0 = np.concatenate([q0, 0.3 * rng.standard_normal(6)])  # off the nominal's rest
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(state_at(desk_model, x0), traj, 0)
    assert res.solution.status == qp.OPTIMAL
    roll = res.rollout
    x = x0
    for k in range(cfg.horizon):
        st = linearize_stage(roll.states[k], roll.u_hat[k], cfg.dt)
        np.testing.assert_allclose(res.plan_states[k], st.A @ x + st.B @ res.plan_inputs[k] + st.r,
                                   rtol=0.0, atol=1e-8)
        x = res.plan_states[k]


def test_dyn_terminal_constraint(desk_model, rng):
    q0, x0, _ = equilibrium_setup(desk_model, rng)
    pose = forward_kinematics(desk_model, q0)
    short = TaskTrajectory(dt=1e-3, poses=(pose,) * 3, tasks=default_task_hierarchy())
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, terminal_state_tol=1e-3)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(state_at(desk_model, x0), short, 0)  # window includes the trajectory end
    assert not res.degraded
    dx = res.plan_states[-1] - res.rollout.x_hat[-1]
    assert np.abs(dx).max() <= 1e-3 + 1e-8


@pytest.mark.parametrize("call", ["osc_torque", "forward_dynamics", "dynamics_derivatives",
                                  "linearize_stage"])
def test_one_chain_pass_per_call(desk_model, rng, chain_counts, call):
    x_hat = random_state(desk_model, rng)
    q, qd = x_hat[:6], x_hat[6:]
    u = 10.0 * rng.standard_normal(6)
    pose = forward_kinematics(desk_model, q + 0.05)
    state = RigidBodyState(desk_model, q, qd)
    calls = {
        # the OSC, the derivatives and the linearization read the caller's
        # state and build none of their own
        "osc_torque": lambda: osc_torque(state, default_task_hierarchy(), pose.rotation_matrix,
                                         pose.translation, 1e-2, posture=default_posture(q)),
        "forward_dynamics": lambda: forward_dynamics(desk_model, q, qd, u),
        "dynamics_derivatives": lambda: dynamics_derivatives(state, u),
        "linearize_stage": lambda: linearize_stage(state, u, dt=1e-3),
    }
    chain_counts.update(passes=0, factors=0)
    calls[call]()
    assert chain_counts["passes"] == chain_counts["factors"] == int(call == "forward_dynamics")
    # a single point is a batch of one through the same derivative core
    assert chain_counts["derivatives"] == int(call in ("dynamics_derivatives", "linearize_stage"))


def test_osc_rollout_one_chain_pass_per_step(desk_model, rng, chain_counts):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q + 0.05)
    start = RigidBodyState(desk_model, q)
    chain_counts.update(passes=0, factors=0)
    osc_rollout(start, *repeat_pose(pose, 4), 1e-3, 1e-2, default_task_hierarchy(),
                posture=default_posture(q))
    # state 0 is start itself: one new state per step after it
    assert chain_counts["passes"] == 3
    assert chain_counts["factors"] == 3


def off_rest_rollout(model, rng, horizon):
    q = random_config(model, rng)
    x0 = np.concatenate([q, 0.3 * rng.standard_normal(model.n)])
    far = forward_kinematics(model, q + 0.2 * rng.standard_normal(model.n))
    traj = TaskTrajectory(dt=1e-3, poses=(far,) * (horizon + 10), tasks=default_task_hierarchy())
    return x0, traj


def test_dyn_step_one_chain_pass_per_rollout_state(desk_model, rng, chain_counts):
    # the rollout's n_p + 1 states serve the linearization too
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    chain_counts.update(passes=0, factors=0)
    ctl.step(state_at(desk_model, x0), traj, 0)
    assert chain_counts["passes"] == 11
    assert chain_counts["factors"] <= 11


def test_dyn_step_one_derivative_pass_per_tick(desk_model, rng, chain_counts):
    # the whole horizon is linearized in one batched pass, not one per stage
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(state_at(desk_model, x0), traj, 0)
    assert chain_counts["derivatives"] == 1


def test_linearize_stage_at_rollout_state_is_identical(desk_model, rng):
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    rot_t, pos_t, twists, _ = traj.window(0, 10)
    roll = osc_rollout(state_at(desk_model, x0), rot_t, pos_t, 1e-3, 1e-2, traj.tasks,
                       posture=default_posture(x0[:6]), twists=twists)
    # one state per stage, each at its row of x_hat
    assert len(roll.states) == 10
    for k, st in enumerate(roll.states):
        assert np.array_equal(np.concatenate([st.q, st.qd]), roll.x_hat[k]), k
    horizon = linearize_stage(roll.states, roll.u_hat, 1e-3, qdd=roll.qdd_hat)
    assert horizon.A.shape == (10, 12, 12) and horizon.B.shape == (10, 12, 6)
    for k in range(10):
        fresh = linearize_stage(state_at(desk_model, roll.x_hat[k]), roll.u_hat[k], 1e-3)
        shared = linearize_stage(roll.states[k], roll.u_hat[k], 1e-3)
        for name in ("A", "B", "r"):
            one = getattr(fresh, name)
            assert np.array_equal(getattr(shared, name), one), (k, name)
            row = getattr(horizon, name)[k]
            assert np.abs(row - one).max() <= 1e-12 * np.abs(one).max(), (k, name)


@pytest.mark.parametrize("call", ["linearize_stage", "dynamics_derivatives"])
def test_linearization_rejects_two_models_and_other_lengths(desk_model, rng, call):
    # a copy of the model has its own chain constants: the batched pass
    # must not run one model's states through the other's
    twin = dataclasses.replace(desk_model)
    states = [state_at(desk_model, random_state(desk_model, rng)),
              state_at(twin, random_state(twin, rng))]
    u = rng.standard_normal((2, 6))
    run = {"linearize_stage": lambda st, v: linearize_stage(st, v, 1e-3),
           "dynamics_derivatives": dynamics_derivatives}[call]
    with pytest.raises(ValueError, match="more than one model"):
        run(states, u)
    for st, v in ((states[0], u[0, :5]), (states[0], u[:1]), (states[:1], u),
                  (states[:1], u[:, :5])):
        with pytest.raises(ValueError, match="row per state"):
            run(st, v)
    with pytest.raises(ValueError, match="empty batch"):
        run([], np.zeros((0, 6)))
    with pytest.raises(ValueError, match="qdd must hold one"):
        linearize_stage(states[:1], u[:1], 1e-3, qdd=u[:1, :5])


def test_dyn_step_calls_dynamics_derivatives_once(desk_model, rng, monkeypatch):
    # through the module's own name, the one the benchmark's probe wraps
    batches = []
    original = mpc_dynamic.dynamics_derivatives

    def counting(states, qdd):
        batches.append(len(states))
        return original(states, qdd)

    monkeypatch.setattr(mpc_dynamic, "dynamics_derivatives", counting)
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(state_at(desk_model, x0), traj, 0)
    assert batches == [10]


def test_hot_started_dyn_step_makes_one_banded_factorization(desk_model, rng, kkt_counts):
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(state_at(desk_model, x0), traj, 0)
    kkt_counts.update(dgbsv=0, dpbtrf=0, dpbtrs=0, dense=0, kkt=Counter())
    # the same problem: its own active set is optimal, and holds the
    # dynamics rows, so the start is a banded KKT system
    res = ctl.step(state_at(desk_model, x0), traj, 0)
    assert res.solution.status == qp.OPTIMAL and res.solution.iterations == 1
    assert kkt_counts == {"dgbsv": 1, "dpbtrf": 1, "dpbtrs": 0, "dense": 0,
                          "kkt": {"_kkt_start": 1}}


def test_rejected_hot_start_makes_one_banded_factorization_per_kkt_system(
        desk_model, rng, kkt_counts, monkeypatch):
    # the start, each drop of a warm row, each dual step and the polish are
    # one KKT system each, and each is one dgbsv; H is factored once, as a
    # band, and nothing is factored densely
    judged = []
    judge = qp.QpSolver._try_hot_start
    monkeypatch.setattr(qp.QpSolver, "_try_hot_start",
                        lambda self, *args: judged.append(judge(self, *args)) or judged[-1])
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(state_at(desk_model, x0), traj, 0)
    x1 = x0.copy()
    x1[6:] += rng.standard_normal(6)
    kkt_counts.update(dgbsv=0, dpbtrf=0, dpbtrs=0, dense=0, kkt=Counter())
    sol = ctl.step(state_at(desk_model, x1), traj, 0).solution
    assert judged[-1] is None and sol.status == qp.OPTIMAL  # rejected, then resumed
    kkt = kkt_counts["kkt"]
    assert set(kkt) <= {"_kkt_start", "solve", "dual step", "_polish"}
    assert kkt["_kkt_start"] == 1 and kkt["solve"] >= 1  # a warm row was dropped
    assert kkt["_polish"] in (0, 2)  # the polish runs when the residuals ask for it
    assert kkt["dual step"] == sol.iterations - 1 >= 1
    assert kkt_counts == {"dgbsv": sum(kkt.values()), "dpbtrf": 1, "dpbtrs": 0, "dense": 0,
                          "kkt": kkt}


def test_singular_dual_step_ends_the_solve_without_a_certificate(desk_model, rng, monkeypatch):
    # a LinAlgError from a dual step's KKT solve ends the solve with MAX_ITER
    # at the current iterate, and the controller reports the tick degraded
    kkt_solve, failed = qp._kkt_solve, []

    def failing(rows, *args):
        if is_dual_step(rows):
            failed.append(rows)
            raise LinAlgError("singular dual step")
        return kkt_solve(rows, *args)

    monkeypatch.setattr(qp, "_kkt_solve", failing)
    p = qp.QpProblem(H=np.ones((1, 2)), g=np.zeros(2), Ain=np.array([[1.0, 0.0]]),
                     lin=np.array([1.0]), uin=np.array([np.inf]))
    sol = qp.QpSolver().solve(p)
    assert len(failed) == 1 and sol.status == qp.MAX_ITER
    np.testing.assert_array_equal(sol.z_star, [0.0, 0.0])  # the iterate before the step
    assert sol.active_set == () and sol.iterations == 2

    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    # cold: rows beyond the dynamics enter by dual steps
    res = ctl.step(state_at(desk_model, x0), traj, 0)
    assert len(failed) == 2 and res.degraded
    assert res.solution.status == qp.MAX_ITER and np.isfinite(res.solution.z_star).all()
    assert np.isfinite(res.u_cmd).all()


def test_dynamic_tick_stays_within_its_call_budget():
    # the function calls (sys.setprofile's call and c_call events) of one
    # horizon-10 DynamicMpc.step at tick 100 of the payload move on rs007n,
    # the dyn_payload benchmark's seed-0 run: the OSC rollout, the
    # linearization, the QP and its solve. Before each chain state's
    # dynamics came from one spatial pass about the end effector, shared
    # with the derivative pass, this tick made 597 Python and 1030 C calls;
    # before the model kept its chain constants and each chain state filled
    # its J once, 529 and 863; before its targets came as array slices, not
    # a list of Pose objects, 475 and 809; before the one-pass finiteness
    # checks, the lighter QP intake and the joint pass over padded constants,
    # 472 and 803
    counts = Counter()
    step = DynamicMpc.step

    def counted(self, state, traj, tick):
        if tick != 100:
            return step(self, state, traj, tick)
        sys.setprofile(lambda frame, event, arg: counts.update((event,)))
        try:
            return step(self, state, traj, tick)
        finally:
            sys.setprofile(None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DynamicMpc, "step", counted)
        cfg = simulator.default_scenario_config("payload_pick_place", "dyn_mpc")
        cfg.max_ticks = 101
        simulator.run_scenario("payload_pick_place", "dyn_mpc", load_bundled_model("rs007n"), cfg)
    assert cfg.horizon == 10
    assert counts["call"] <= 462 and counts["c_call"] <= 707, counts
