import sys

import numpy as np
import pytest

from armmpc import qp
from armmpc.dynamics import bias_forces, dynamics_derivatives, forward_dynamics
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

from conftest import random_config


def random_state(model, rng, vel_scale=0.5):
    q = random_config(model, rng)
    qd = vel_scale * rng.standard_normal(model.n)
    return np.concatenate([q, qd])


def test_linearize_affine_identity(desk_model, rng):
    # the discrete affine model reproduces the nominal's explicit Euler step
    x_hat = random_state(desk_model, rng)
    u_hat = 10.0 * rng.standard_normal(6)
    dt = 1e-3
    st = linearize_stage(desk_model, x_hat, u_hat, dt=dt)
    qdd = forward_dynamics(desk_model, x_hat[:6], x_hat[6:], u_hat)
    euler = x_hat + dt * np.concatenate([x_hat[6:], qdd])
    np.testing.assert_allclose(st.A @ x_hat + st.B @ u_hat + st.r, euler, atol=1e-12)


def test_linearize_block_structure(desk_model, rng):
    x_hat = random_state(desk_model, rng)
    u_hat = rng.standard_normal(6)
    dt = 1e-3
    st = linearize_stage(desk_model, x_hat, u_hat, dt=dt)
    np.testing.assert_allclose(st.A[:6, :6], np.eye(6), atol=1e-15)
    np.testing.assert_allclose(st.A[:6, 6:], dt * np.eye(6), atol=1e-15)
    np.testing.assert_allclose(st.B[:6, :], 0.0, atol=1e-15)


def test_linearize_pendulum_symbolic(gravity_pendulum):
    # d(qdd)/dq at rest = -(g/l) cos(theta) for the lifted pendulum
    theta = 0.3
    x_hat = np.array([theta, 0.0])
    u_hat = np.array([9.81 * np.cos(theta)])  # static hold
    st = linearize_stage(gravity_pendulum, x_hat, u_hat, dt=1e-3)
    dfdq = (st.A[1, 0]) / 1e-3  # lower-left of continuous jacobian
    assert dfdq == pytest.approx(9.81 * np.sin(theta), abs=1e-6)


def test_linearization_second_order_remainder(desk_model, rng):
    x_hat = random_state(desk_model, rng, vel_scale=0.2)
    u_hat = bias_forces(desk_model, x_hat[:6], x_hat[6:])
    dt = 1e-3
    st = linearize_stage(desk_model, x_hat, u_hat, dt=dt)

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
    x0 = rng.standard_normal(nx)
    if n_p == 0:
        with pytest.raises(ValueError):
            build_prediction(stages, x0)
        return
    u_seq = rng.standard_normal((n_p, nu))
    states = []
    x = x0
    for a, b, r, u in zip(stages.A, stages.B, stages.r, u_seq):
        x = a @ x + b @ u + r
        states.append(x)
    states = np.array(states)
    eq_a, eq_b = build_prediction(stages, x0)
    assert eq_a.shape == (n_p * nx, n_p * (nx + nu))
    # z is stage-wise: [u_0, x_1, u_1, x_2, ...]
    z = np.concatenate([u_seq, states], axis=1).ravel()
    np.testing.assert_allclose(eq_a @ z, eq_b, rtol=0.0, atol=1e-12)
    # the rows pin the states: given the inputs they reproduce the rollout
    x_cols = (np.arange(n_p * (nx + nu)) % (nx + nu)) >= nu
    pinned = np.linalg.solve(eq_a[:, x_cols], eq_b - eq_a[:, ~x_cols] @ u_seq.ravel())
    np.testing.assert_allclose(pinned, states.ravel(), rtol=0.0, atol=1e-12)


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
    window, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(desk_model, x0, window, cfg.dt, cfg.svd_threshold, traj.tasks,
                       posture=default_posture(q0))
    stages = linearize_stage(desk_model, roll.x_hat[:-1], roll.u_hat, cfg.dt)
    problem = build_dyn_qp(cfg, roll, build_prediction(stages, x0), desk_model.limits)
    sol = qp.solve(problem)
    assert sol.status == qp.OPTIMAL
    # deviations from the equilibrium nominal vanish
    np.testing.assert_allclose(sol.z_star, 0.0, atol=1e-7)
    with pytest.raises(ValueError, match="horizon"):
        short = linearize_stage(desk_model, roll.x_hat[:-2], roll.u_hat[:-1], cfg.dt)
        build_dyn_qp(cfg, roll, build_prediction(short, x0), desk_model.limits)


def test_dyn_qp_carries_torque_limits(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=3, dt=1e-3)
    window, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(desk_model, x0, window, cfg.dt, cfg.svd_threshold, traj.tasks,
                       posture=default_posture(q0))
    stages = linearize_stage(desk_model, roll.x_hat[:-1], roll.u_hat, cfg.dt)
    problem = build_dyn_qp(cfg, roll, build_prediction(stages, x0), desk_model.limits)
    # bounds are deviations; adding the nominal back recovers the physical limits
    u_max = desk_model.limits.u_max
    np.testing.assert_allclose(u_max, [239.0, 239.0, 124.5, 32.0, 40.96, 25.6])
    for k in range(cfg.horizon):
        blk = slice(k * 18, k * 18 + 6)  # u_k leads stage k of z
        np.testing.assert_allclose(problem.ub[blk] + roll.u_hat[k], u_max, atol=1e-12)
        np.testing.assert_allclose(problem.lb[blk] + roll.u_hat[k], -u_max, atol=1e-12)


def dyn_problem(model, rng, horizon):
    q0 = random_config(model, rng)
    x0 = np.concatenate([q0, 0.3 * rng.standard_normal(6)])
    far = forward_kinematics(model, q0 + 0.2 * rng.standard_normal(6))
    traj = TaskTrajectory(dt=1e-3, poses=(far,) * (horizon + 10), tasks=default_task_hierarchy())
    cfg = DynamicMpcConfig(horizon=horizon, dt=1e-3)
    window, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(model, x0, window, cfg.dt, cfg.svd_threshold, traj.tasks,
                       posture=default_posture(q0))
    stages = linearize_stage(model, roll.x_hat[:-1], roll.u_hat, cfg.dt)
    return build_dyn_qp(cfg, roll, build_prediction(stages, x0), model.limits)


def test_dyn_qp_equality_rows_are_block_banded(desk_model, rng):
    # z = [u_0, x_1, u_1, x_2, ...]: stage k's rows touch only x_k, u_k and
    # x_{k+1}, which are contiguous, and hold the identity on x_{k+1}
    problem = dyn_problem(desk_model, rng, 10)
    nx, n, n_p = 12, 6, 10
    ns = nx + n
    assert problem.Aeq.shape == (n_p * nx, n_p * ns)
    for k in range(n_p):
        row = problem.Aeq[k * nx:(k + 1) * nx]
        lo = max(k * ns - nx, 0)  # x_k (x_0 is the measured state, not in z)
        hi = (k + 1) * ns
        assert not row[:, :lo].any() and not row[:, hi:].any(), f"stage {k}"
        np.testing.assert_array_equal(row[:, hi - nx:hi], np.eye(nx))
        assert row[:, k * ns:k * ns + n].any()  # -B_k on u_k


def test_dyn_qp_kkt_band_does_not_grow_with_horizon(desk_model, rng):
    # under the solver's order the KKT band of the dynamics rows (and of
    # every active bound) has one width at any horizon
    widths = []
    for horizon in (5, 10, 20):
        problem = dyn_problem(desk_model, rng, horizon)
        band = qp._band_order(qp.regularized_hessian(problem.H), problem.Aeq)
        widths.append(band.width)
    assert widths[0] == widths[1] == widths[2]
    assert widths[0] < 3 * 18


def test_dyn_step_equilibrium_returns_bias(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, task_weight=10.0, damping_weight=1e-4)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(x0, traj, 0)
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
        res = ctl.step(x0, traj, tick)
        assert np.all(np.abs(res.u_cmd) <= u_max + 1e-8)


def test_dyn_step_solved_plan_satisfies_dynamics_rows(desk_model, rng):
    q0, _, traj = equilibrium_setup(desk_model, rng)
    x0 = np.concatenate([q0, 0.3 * rng.standard_normal(6)])  # off the nominal's rest
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(x0, traj, 0)
    assert res.solution.status == qp.OPTIMAL
    roll = res.rollout
    x = x0
    for k in range(cfg.horizon):
        st = linearize_stage(desk_model, roll.x_hat[k], roll.u_hat[k], cfg.dt)
        np.testing.assert_allclose(res.plan_states[k], st.A @ x + st.B @ res.plan_inputs[k] + st.r,
                                   rtol=0.0, atol=1e-8)
        x = res.plan_states[k]


def test_dyn_terminal_constraint(desk_model, rng):
    q0, x0, _ = equilibrium_setup(desk_model, rng)
    pose = forward_kinematics(desk_model, q0)
    short = TaskTrajectory(dt=1e-3, poses=(pose,) * 3, tasks=default_task_hierarchy())
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, terminal_state_tol=1e-3)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(x0, short, 0)  # window includes the trajectory end
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
    calls = {
        "osc_torque": lambda: osc_torque(desk_model, q, qd, default_task_hierarchy(),
                                         pose, 1e-2, posture=default_posture(q)),
        "forward_dynamics": lambda: forward_dynamics(desk_model, q, qd, u),
        "dynamics_derivatives": lambda: dynamics_derivatives(desk_model, q, qd, u),
        "linearize_stage": lambda: linearize_stage(desk_model, x_hat, u, dt=1e-3),
    }
    chain_counts.update(passes=0, factors=0)
    calls[call]()
    assert chain_counts["passes"] == 1
    assert chain_counts["factors"] <= 1
    # a single point is a batch of one through the same derivative core
    assert chain_counts["derivatives"] == int(call in ("dynamics_derivatives", "linearize_stage"))


def test_osc_rollout_one_chain_pass_per_step(desk_model, rng, chain_counts):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q + 0.05)
    x0 = np.concatenate([q, np.zeros(6)])
    chain_counts.update(passes=0, factors=0)
    osc_rollout(desk_model, x0, [pose] * 4, 1e-3, 1e-2, default_task_hierarchy(),
                posture=default_posture(q))
    assert chain_counts["passes"] == 4
    assert chain_counts["factors"] == 4


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
    ctl.step(x0, traj, 0)
    assert chain_counts["passes"] == 11
    assert chain_counts["factors"] <= 11


def test_dyn_step_one_derivative_pass_per_tick(desk_model, rng, chain_counts):
    # the whole horizon is linearized in one batched pass, not one per stage
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(x0, traj, 0)
    assert chain_counts["derivatives"] == 1


def test_linearize_stage_at_rollout_state_is_identical(desk_model, rng):
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    window, _ = traj.window(0, 10)
    roll = osc_rollout(desk_model, x0, window, 1e-3, 1e-2, traj.tasks,
                       posture=default_posture(x0[:6]))
    assert len(roll.states) == 11
    horizon = linearize_stage(desk_model, roll.x_hat[:-1], roll.u_hat, 1e-3,
                              states=roll.states[:-1], qdd=roll.qdd_hat)
    assert horizon.A.shape == (10, 12, 12) and horizon.B.shape == (10, 12, 6)
    for k in range(10):
        fresh = linearize_stage(desk_model, roll.x_hat[k], roll.u_hat[k], 1e-3)
        shared = linearize_stage(desk_model, roll.x_hat[k], roll.u_hat[k], 1e-3,
                                 states=roll.states[k:k + 1])
        for name in ("A", "B", "r"):
            one = getattr(fresh, name)
            assert np.array_equal(getattr(shared, name), one), (k, name)
            row = getattr(horizon, name)[k]
            assert np.abs(row - one).max() <= 1e-12 * np.abs(one).max(), (k, name)


def test_linearize_stage_rejects_state_elsewhere(desk_model, rng):
    x0, traj = off_rest_rollout(desk_model, rng, 3)
    window, _ = traj.window(0, 3)
    roll = osc_rollout(desk_model, x0, window, 1e-3, 1e-2, traj.tasks)
    with pytest.raises(ValueError, match="x_hat"):
        linearize_stage(desk_model, roll.x_hat[1], roll.u_hat[1], 1e-3, states=roll.states[:1])
    moved = roll.x_hat[0].copy()
    moved[8] += 1e-9  # velocity off by a hair
    with pytest.raises(ValueError, match="x_hat"):
        linearize_stage(desk_model, moved, roll.u_hat[0], 1e-3, states=roll.states[:1])
    with pytest.raises(ValueError, match="x_hat"):  # states shifted by one stage
        linearize_stage(desk_model, roll.x_hat[:-1], roll.u_hat, 1e-3, states=roll.states[1:])


@pytest.fixture
def kkt_counts(monkeypatch):
    """Count banded KKT factorizations and dense solves called from the QP solver."""
    counts = {"banded": 0, "dense": 0}
    dgbsv = qp.dgbsv

    def counting_dgbsv(*args, **kwargs):
        counts["banded"] += 1
        return dgbsv(*args, **kwargs)

    def counting_dense(fn):
        def call(*args, **kwargs):
            counts["dense"] += sys._getframe(1).f_globals.get("__name__") == qp.__name__
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(qp, "dgbsv", counting_dgbsv)
    for name in ("solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, name, counting_dense(getattr(np.linalg, name)))
    return counts


def test_hot_started_dyn_step_makes_one_banded_factorization(desk_model, rng, kkt_counts):
    x0, traj = off_rest_rollout(desk_model, rng, 10)
    ctl = DynamicMpc(desk_model, DynamicMpcConfig(horizon=10, dt=1e-3),
                     posture=default_posture(x0[:6]))
    ctl.step(x0, traj, 0)
    kkt_counts.update(banded=0, dense=0)
    res = ctl.step(x0, traj, 0)  # the same problem: its own active set is optimal
    assert res.solution.status == qp.OPTIMAL and res.solution.iterations == 1
    assert kkt_counts == {"banded": 1, "dense": 0}
