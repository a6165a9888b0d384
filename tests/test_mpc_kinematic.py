import numpy as np
import pytest

from armmpc import qp
from armmpc.kinematics import forward_kinematics
from armmpc.mpc_kinematic import (
    KinematicMpc,
    KinematicMpcConfig,
    _diff_matrices,
    _diff_offsets,
    build_kin_qp,
)
from armmpc.nominal import default_task_hierarchy, ik_rollout
from armmpc.robot_model import JointLimits
from armmpc.trajgen import TaskTrajectory, scenario_trajectory

from conftest import random_config


def diff_ops(n, horizon, dt, q_prev, q_prev2):
    """(vel_op, vel_off, acc_op, acc_off) of the position stack."""
    vel_op, acc_op = _diff_matrices(n, horizon, dt)
    vel_off, acc_off = _diff_offsets(n, horizon, dt, q_prev, q_prev2)
    return vel_op, vel_off, acc_op, acc_off


def test_ik_rollout_one_chain_pass_per_step(desk_model, rng, chain_counts):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q + 0.05)
    chain_counts.update(passes=0)
    ik_rollout(desk_model, q, [pose] * 4, 1e-3, 1e-2, default_task_hierarchy())
    assert chain_counts["passes"] == 4


def test_diff_ops_rest_history(rng):
    n, horizon, dt = 3, 4, 1e-2
    q_prev = rng.standard_normal(n)
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, q_prev, q_prev)
    stack = np.tile(q_prev, horizon + 1)
    np.testing.assert_allclose(vel_op @ stack + vel_off, 0.0, atol=1e-10)
    np.testing.assert_allclose(acc_op @ stack + acc_off, 0.0, atol=1e-8)


def test_diff_ops_linear_ramp():
    n, horizon, dt = 2, 5, 0.1
    rate = np.array([0.3, -0.7])
    # q_k = k * dt * c for k = 0.., history at k = -1, -2
    stack = np.concatenate([k * dt * rate for k in range(horizon + 1)])
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, -1 * dt * rate, -2 * dt * rate)
    vel = vel_op @ stack + vel_off
    acc = acc_op @ stack + acc_off
    np.testing.assert_allclose(vel, np.tile(rate, horizon + 1), atol=1e-10)
    np.testing.assert_allclose(acc, 0.0, atol=1e-8)


def test_diff_ops_match_indexwise_oracle(rng):
    n, horizon, dt = 3, 6, 1e-3
    q_prev = rng.standard_normal(n)
    q_prev2 = rng.standard_normal(n)
    stack = rng.standard_normal((horizon + 1) * n)
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, q_prev, q_prev2)
    blocks = stack.reshape(horizon + 1, n)
    ext = np.vstack([q_prev2, q_prev, blocks])  # indices shifted by 2
    vel = vel_op @ stack + vel_off
    acc = acc_op @ stack + acc_off
    for k in range(horizon + 1):
        np.testing.assert_allclose(vel[k * n:(k + 1) * n], (ext[k + 2] - ext[k + 1]) / dt, atol=1e-9)
        np.testing.assert_allclose(
            acc[k * n:(k + 1) * n], (ext[k + 2] - 2 * ext[k + 1] + ext[k]) / dt**2, atol=1e-6
        )


@pytest.mark.parametrize("n,horizon", [(6, 10), (2, 2), (7, 20), (1, 0), (3, 1)])
def test_diff_matrices_match_blockwise_loop(n, horizon):
    # the block-by-block construction, kept as the reference: same values and
    # the same signs of zero
    dt = 1e-3
    dim = (horizon + 1) * n
    eye = np.eye(n)
    vel_ref = np.zeros((dim, dim))
    acc_ref = np.zeros((dim, dim))
    for k in range(horizon + 1):
        row = slice(k * n, (k + 1) * n)
        vel_ref[row, row] = eye / dt
        acc_ref[row, row] = eye / dt**2
        if k >= 1:
            prev = slice((k - 1) * n, k * n)
            vel_ref[row, prev] = -eye / dt
            acc_ref[row, prev] += -2 * eye / dt**2
        if k >= 2:
            acc_ref[row, (k - 2) * n:(k - 1) * n] = eye / dt**2
    for op, ref in zip(_diff_matrices(n, horizon, dt), (vel_ref, acc_ref)):
        np.testing.assert_array_equal(op, ref)
        np.testing.assert_array_equal(np.signbit(op), np.signbit(ref))
        assert not op.flags.writeable


def make_traj_holding(model, q0, steps, dt, tasks=None):
    pose = forward_kinematics(model, q0)
    from armmpc.nominal import default_task_hierarchy

    return TaskTrajectory(dt=dt, poses=(pose,) * steps,
                          tasks=tasks or default_task_hierarchy())


def test_kin_qp_fixed_point_on_nominal(desk_model, rng):
    # nominal exactly on target with loose limits: optimum is the nominal stack
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=5, dt=1e-3, task_weight=100.0, damping_weight=0.01)
    traj = make_traj_holding(desk_model, q0, 10, cfg.dt)
    window, _ = traj.window(0, cfg.horizon)
    rollout = ik_rollout(desk_model, q0, window, cfg.dt, cfg.svd_threshold, traj.tasks)
    problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
    sol = qp.solve(problem)
    assert sol.status == qp.OPTIMAL
    np.testing.assert_allclose(sol.z_star, np.tile(q0, cfg.horizon + 1), atol=1e-8)


def test_kin_qp_least_squares_fixed_point(desk_model, rng):
    # single step, no damping/accel cost, full-rank jacobian stack: q* = qhat
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=1, dt=1e-3, task_weight=10.0,
                             damping_weight=0.0, accel_weight=0.0)
    traj = make_traj_holding(desk_model, q0, 5, cfg.dt)
    window, _ = traj.window(0, cfg.horizon)
    rollout = ik_rollout(desk_model, q0, window, cfg.dt, cfg.svd_threshold, traj.tasks)
    problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
    sol = qp.solve(problem)
    np.testing.assert_allclose(sol.z_star.reshape(2, -1)[1], rollout.q_hat[1], atol=1e-7)


def test_singularity_scenario_weights_accepted(desk_model_large):
    cfg = KinematicMpcConfig(horizon=5, task_weight=2000.0, damping_weight=0.01)
    controller = KinematicMpc(desk_model_large, cfg)
    traj = scenario_trajectory("singularity_pass", desk_model_large, cfg.dt, duration=0.05)
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    res = controller.step(SINGULARITY_START_CONFIG, traj, 0)
    assert np.all(np.isfinite(res.q_cmd))


def test_step_stationary_target_is_fixed_point(desk_model, rng):
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=5, dt=1e-3, task_weight=100.0)
    traj = make_traj_holding(desk_model, q0, 50, cfg.dt)
    controller = KinematicMpc(desk_model, cfg)
    res = controller.step(q0, traj, 0)
    assert not res.degraded
    np.testing.assert_allclose(res.q_cmd, q0, atol=1e-6)


def test_step_velocity_limit_respected(desk_model, rng):
    q0 = random_config(desk_model, rng, margin=0.35)
    cfg = KinematicMpcConfig(horizon=4, dt=1e-3, task_weight=500.0)
    lim = desk_model.limits
    slow = JointLimits(q_min=lim.q_min, q_max=lim.q_max,
                       v_max=np.full(6, 0.1), u_max=lim.u_max)
    # target far enough that unconstrained tracking would need ~1 rad/s
    q_target = q0 + 0.15 * rng.choice([-1.0, 1.0], size=6)
    pose = forward_kinematics(desk_model, q_target)
    traj = TaskTrajectory(dt=cfg.dt, poses=(pose,) * 30)
    controller = KinematicMpc(desk_model, cfg, limits=slow)
    res = controller.step(q0, traj, 0)
    assert not res.degraded
    assert np.linalg.norm((res.q_cmd - q0) / cfg.dt, ord=np.inf) <= 0.1 + 1e-8


def test_step_full_plan_respects_bounds(desk_model, rng):
    q0 = random_config(desk_model, rng, margin=0.35)
    cfg = KinematicMpcConfig(horizon=6, dt=1e-3, task_weight=500.0)
    lim = desk_model.limits
    slow = JointLimits(q_min=lim.q_min, q_max=lim.q_max,
                       v_max=np.full(6, 0.2), u_max=lim.u_max)
    pose = forward_kinematics(desk_model, q0 + 0.2 * rng.standard_normal(6))
    traj = TaskTrajectory(dt=cfg.dt, poses=(pose,) * 30)
    controller = KinematicMpc(desk_model, cfg, limits=slow)
    res = controller.step(q0, traj, 0)
    vel_op, vel_off, _, _ = diff_ops(desk_model.n, cfg.horizon, cfg.dt, q0, q0)
    vel = vel_op @ res.solution.z_star + vel_off
    assert np.abs(vel).max() <= 0.2 + 1e-8
    assert np.all(res.solution.z_star <= np.tile(lim.q_max, cfg.horizon + 1) + 1e-8)
    assert np.all(res.solution.z_star >= np.tile(lim.q_min, cfg.horizon + 1) - 1e-8)


def test_terminal_constraint_enforced(desk_model, rng):
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=5, dt=1e-3, task_weight=100.0,
                             terminal_pos_tol=1e-4, terminal_vel_tol=1e-3)
    traj = make_traj_holding(desk_model, q0, 4, cfg.dt)  # window reaches the end
    controller = KinematicMpc(desk_model, cfg)
    res = controller.step(q0, traj, 0)
    assert not res.degraded
    q_n = res.plan[-1]
    q_hat_n = res.rollout.q_hat[-1]
    assert np.abs(q_n - q_hat_n).max() <= 1e-4 + 1e-8
    vel_op, vel_off, _, _ = diff_ops(desk_model.n, cfg.horizon, cfg.dt, q0, q0)
    vel = (vel_op @ res.solution.z_star + vel_off)[-6:]
    assert np.abs(vel - res.rollout.qd_hat[-1]).max() <= 1e-3 + 1e-8


def test_infeasible_tick_holds_and_widens(desk_model):
    # terminal box far outside joint limits makes the QP infeasible
    q0 = np.zeros(6)
    cfg = KinematicMpcConfig(horizon=2, dt=1e-3, terminal_pos_tol=1e-9, terminal_vel_tol=1e-9)
    pose = forward_kinematics(desk_model, q0 + 0.5)
    traj = TaskTrajectory(dt=cfg.dt, poses=(pose,) * 2)
    controller = KinematicMpc(desk_model, cfg)
    res0 = controller.step(q0, traj, 0)
    assert res0.degraded
    np.testing.assert_allclose(res0.q_cmd, q0)  # hold = measured on first tick
    assert controller._widen_next


def plan_cost(cfg, rollout, history, plan):
    """Full tracking + damping + accel objective of a position plan."""
    stack = plan.ravel()
    vel_op, vel_off, acc_op, acc_off = diff_ops(plan.shape[1], cfg.horizon, cfg.dt, *history)
    cost = 0.0
    for k in range(plan.shape[0]):
        e = rollout.err_stack[k] - rollout.j_stack[k] @ (plan[k] - rollout.q_hat[k])
        cost += cfg.task_weight * (e @ e)
    vel = vel_op @ stack + vel_off
    acc = acc_op @ stack + acc_off
    return cost + cfg.damping_weight * (vel @ vel) + cfg.accel_weight * (acc @ acc)


def test_cost_horizon_monotonicity(desk_model, rng):
    # sanity regression: extending the horizon by one step costs no more than
    # the shorter optimum plus the appended stage's nominal cost
    q0 = random_config(desk_model, rng)
    target = forward_kinematics(desk_model, q0 + 0.05 * rng.standard_normal(6))
    traj = TaskTrajectory(dt=1e-3, poses=(target,) * 30)
    costs = {}
    for horizon in (5, 6):
        cfg = KinematicMpcConfig(horizon=horizon, dt=1e-3, task_weight=100.0,
                                 damping_weight=0.01, accel_weight=1e-5)
        window, _ = traj.window(0, horizon)
        rollout = ik_rollout(desk_model, q0, window, cfg.dt, cfg.svd_threshold, traj.tasks)
        problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
        sol = qp.solve(problem)
        assert sol.status == qp.OPTIMAL
        plan = sol.z_star.reshape(horizon + 1, 6)
        costs[horizon] = plan_cost(cfg, rollout, (q0, q0), plan)
        if horizon == 6:
            nominal_stage = rollout.err_stack[6] @ np.diag(np.full(6, 100.0)) @ rollout.err_stack[6]
    assert costs[6] <= costs[5] + nominal_stage + 0.05 * abs(costs[5]) + 1e-9


def test_smoothing_vs_raw_ik_nominal(desk_model_large):
    # around the singular region the MPC command accelerations stay below the
    # raw truncated-SVD IK nominal's (full-run version lives in acceptance)
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    dt = 1e-3
    traj = scenario_trajectory("singularity_pass", desk_model_large, dt)
    window, _ = traj.window(0, traj.n_samples - 1)
    nominal = ik_rollout(desk_model_large, SINGULARITY_START_CONFIG, window, dt, 1e-2, traj.tasks)
    lo, hi = 2300, 2650  # brackets the near-singular stretch on this model
    nominal_acc = np.abs(np.diff(nominal.q_hat[lo - 2:hi], 2, axis=0) / dt**2).max()

    cfg = KinematicMpcConfig(horizon=10, dt=dt, task_weight=2000.0, damping_weight=0.01,
                             accel_weight=2e-5, terminal_pos_tol=0.02, terminal_vel_tol=0.2)
    controller = KinematicMpc(desk_model_large, cfg)
    q = nominal.q_hat[lo].copy()
    cmds = [q.copy(), q.copy()]
    for tick in range(lo, hi):
        res = controller.step(q, traj, tick)
        q = res.q_cmd  # perfect low-level tracking stand-in
        cmds.append(q.copy())
    cmd_acc = np.abs(np.diff(np.asarray(cmds), 2, axis=0) / dt**2).max()
    assert cmd_acc <= nominal_acc


def test_nan_kkt_solve_degrades_and_holds(desk_model, rng, monkeypatch):
    # a KKT solve that returns NaN is never optimal: the tick degrades and
    # holds the last command
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=4)
    traj = make_traj_holding(desk_model, q0, 20, cfg.dt)
    ctl = KinematicMpc(desk_model, cfg)
    first = ctl.step(q0, traj, 0)
    assert not first.degraded
    monkeypatch.setattr(qp, "_kkt_solve", lambda rows, hess, g, ids: (
        np.full(g.size, np.nan), np.full(len(ids), np.nan)))
    res = ctl.step(first.q_cmd, traj, 1)
    assert res.degraded and res.solution.status != qp.OPTIMAL
    np.testing.assert_array_equal(res.q_cmd, first.q_cmd)
