import numpy as np
import pytest

from armmpc import dynamics, kinematics, qp
from armmpc.dynamics import bias_forces, dynamics_derivatives, forward_dynamics
from armmpc.kinematics import forward_kinematics
from armmpc.mpc_dynamic import (
    DynamicMpc,
    DynamicMpcConfig,
    LinearizedStage,
    build_dyn_qp,
    build_prediction,
    linearize_stage,
    propagate,
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


def test_prediction_frozen_dynamics():
    nx, nu, n_p = 4, 2, 3
    stages = [LinearizedStage(A=np.eye(nx), B=np.zeros((nx, nu)), r=np.zeros(nx))] * n_p
    x0 = np.arange(nx, dtype=float)
    stack = build_prediction(stages, x0)
    out = propagate(stack, np.zeros((n_p, nu)))
    np.testing.assert_allclose(out.reshape(n_p + 1, nx), np.tile(x0, (n_p + 1, 1)), atol=1e-15)


def test_prediction_single_step(rng):
    nx, nu = 4, 2
    st = LinearizedStage(A=rng.standard_normal((nx, nx)), B=rng.standard_normal((nx, nu)),
                         r=rng.standard_normal(nx))
    x0 = rng.standard_normal(nx)
    u0 = rng.standard_normal(nu)
    stack = build_prediction([st], x0)
    out = propagate(stack, u0.reshape(1, nu)).reshape(2, nx)
    np.testing.assert_allclose(out[0], x0, atol=1e-15)
    np.testing.assert_allclose(out[1], st.A @ x0 + st.B @ u0 + st.r, atol=1e-13)


def test_prediction_matches_sequential_rollout(rng):
    nx, nu, n_p = 6, 3, 5
    stages = [
        LinearizedStage(A=np.eye(nx) + 0.1 * rng.standard_normal((nx, nx)),
                        B=rng.standard_normal((nx, nu)), r=0.1 * rng.standard_normal(nx))
        for _ in range(n_p)
    ]
    x0 = rng.standard_normal(nx)
    u_seq = rng.standard_normal((n_p, nu))
    stack = build_prediction(stages, x0)
    out = propagate(stack, u_seq).reshape(n_p + 1, nx)
    x = x0.copy()
    np.testing.assert_allclose(out[0], x0, atol=1e-12)
    for k, st in enumerate(stages):
        x = st.A @ x + st.B @ u_seq[k] + st.r
        np.testing.assert_allclose(out[k + 1], x, atol=1e-12)


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
    stages = [linearize_stage(desk_model, roll.x_hat[k], roll.u_hat[k], cfg.dt)
              for k in range(cfg.horizon)]
    stack = build_prediction(stages, x0)
    problem = build_dyn_qp(cfg, roll, stack, desk_model.limits)
    sol = qp.solve(problem)
    assert sol.status == qp.OPTIMAL
    # deviations from the equilibrium nominal vanish
    np.testing.assert_allclose(sol.z_star, 0.0, atol=1e-7)


def test_dyn_qp_carries_torque_limits(desk_model, rng):
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=3, dt=1e-3)
    window, _ = traj.window(0, cfg.horizon)
    roll = osc_rollout(desk_model, x0, window, cfg.dt, cfg.svd_threshold, traj.tasks,
                       posture=default_posture(q0))
    stages = [linearize_stage(desk_model, roll.x_hat[k], roll.u_hat[k], cfg.dt)
              for k in range(cfg.horizon)]
    stack = build_prediction(stages, x0)
    problem = build_dyn_qp(cfg, roll, stack, desk_model.limits)
    # bounds are deviations; adding the nominal back recovers the physical limits
    u_max = desk_model.limits.u_max
    np.testing.assert_allclose(u_max, [239.0, 239.0, 124.5, 32.0, 40.96, 25.6])
    nx = 12
    for k in range(cfg.horizon):
        blk = slice(cfg.horizon * nx + k * 6, cfg.horizon * nx + (k + 1) * 6)
        np.testing.assert_allclose(problem.ub[blk] + roll.u_hat[k], u_max, atol=1e-12)
        np.testing.assert_allclose(problem.lb[blk] + roll.u_hat[k], -u_max, atol=1e-12)


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
    q0, x0, traj = equilibrium_setup(desk_model, rng)
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3)
    ctl = DynamicMpc(desk_model, cfg, posture=default_posture(q0))
    res = ctl.step(x0, traj, 0)
    sol = res.solution
    assert sol.status == qp.OPTIMAL
    assert sol.kkt.feasibility <= 1e-8


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


@pytest.fixture
def chain_counts(monkeypatch):
    """Count joint passes (chain states built) and mass-matrix factorizations."""
    counts = {"passes": 0, "factors": 0}
    init = kinematics.ChainState.__init__
    factor = dynamics.cho_factor

    def counting_init(self, *args, **kwargs):
        counts["passes"] += 1
        init(self, *args, **kwargs)

    def counting_factor(*args, **kwargs):
        counts["factors"] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(kinematics.ChainState, "__init__", counting_init)
    monkeypatch.setattr(dynamics, "cho_factor", counting_factor)
    return counts


@pytest.mark.parametrize("call", ["osc_torque", "forward_dynamics", "dynamics_derivatives",
                                  "linearize_stage"])
def test_one_chain_pass_per_call(desk_model, rng, chain_counts, call):
    x_hat = random_state(desk_model, rng)
    q, qd = x_hat[:6], x_hat[6:]
    u = 10.0 * rng.standard_normal(6)
    pose = forward_kinematics(desk_model, q + 0.05)
    calls = {
        "osc_torque": lambda: osc_torque(desk_model, q, qd, default_task_hierarchy(),
                                         [pose, pose], 1e-2, posture=default_posture(q)),
        "forward_dynamics": lambda: forward_dynamics(desk_model, q, qd, u),
        "dynamics_derivatives": lambda: dynamics_derivatives(desk_model, q, qd, u),
        "linearize_stage": lambda: linearize_stage(desk_model, x_hat, u, dt=1e-3),
    }
    chain_counts.update(passes=0, factors=0)
    calls[call]()
    assert chain_counts["passes"] == 1
    assert chain_counts["factors"] <= 1


def test_osc_rollout_one_chain_pass_per_step(desk_model, rng, chain_counts):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q + 0.05)
    x0 = np.concatenate([q, np.zeros(6)])
    chain_counts.update(passes=0, factors=0)
    osc_rollout(desk_model, x0, [pose] * 4, 1e-3, 1e-2, default_task_hierarchy(),
                posture=default_posture(q))
    assert chain_counts["passes"] == 4
    assert chain_counts["factors"] == 4
