import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from armmpc import load_bundled_model, mpc_dynamic, mpc_kinematic, qp, simulator
from armmpc.checks import lower_band
from armmpc.kinematics import ChainState, forward_kinematics
from armmpc.mpc_kinematic import (
    KinematicMpc,
    KinematicMpcConfig,
    _diff_matrices,
    _diff_offsets,
    build_kin_qp,
)
from armmpc.nominal import NominalRollout, default_task_hierarchy, ik_rollout
from armmpc.robot_model import JointLimits
from armmpc.trajgen import TaskTrajectory, scenario_trajectory

from conftest import random_config, recorded_builds, repeat_pose


def diff_ops(n, horizon, dt, q_prev, q_prev2):
    """(vel_op, vel_off, acc_op, acc_off) of a position stack of horizon
    blocks, after q_prev2 and q_prev."""
    vel_op, acc_op = _diff_matrices(n, horizon, dt)
    vel_off, acc_off = _diff_offsets(n, horizon, dt, q_prev, q_prev2)
    return vel_op, vel_off, acc_op, acc_off


def with_velocity_limit(model, v_max):
    """model with every joint's velocity limit set to v_max."""
    return replace(model, joints=tuple(replace(j, v_limit=v_max) for j in model.joints))


def test_ik_rollout_one_chain_pass_per_step(desk_model, rng, chain_counts):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q + 0.05)
    chain_counts.update(passes=0)
    ik_rollout(ChainState(desk_model, q), *repeat_pose(pose, 4), 1e-3, 1e-2,
               default_task_hierarchy())
    assert chain_counts["passes"] == 4


def test_diff_ops_rest_history(rng):
    n, horizon, dt = 3, 4, 1e-2
    q_prev = rng.standard_normal(n)
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, q_prev, q_prev)
    stack = np.tile(q_prev, horizon)
    np.testing.assert_allclose(vel_op @ stack + vel_off, 0.0, atol=1e-10)
    np.testing.assert_allclose(acc_op @ stack + acc_off, 0.0, atol=1e-8)


def test_diff_ops_linear_ramp():
    n, horizon, dt = 2, 5, 0.1
    rate = np.array([0.3, -0.7])
    # q_k = k * dt * c for k = 0.., history at k = -1, -2
    stack = np.concatenate([k * dt * rate for k in range(horizon)])
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, -1 * dt * rate, -2 * dt * rate)
    vel = vel_op @ stack + vel_off
    acc = acc_op @ stack + acc_off
    np.testing.assert_allclose(vel, np.tile(rate, horizon), atol=1e-10)
    np.testing.assert_allclose(acc, 0.0, atol=1e-8)


def test_diff_ops_match_indexwise_oracle(rng):
    n, horizon, dt = 3, 6, 1e-3
    q_prev = rng.standard_normal(n)
    q_prev2 = rng.standard_normal(n)
    stack = rng.standard_normal(horizon * n)
    vel_op, vel_off, acc_op, acc_off = diff_ops(n, horizon, dt, q_prev, q_prev2)
    blocks = stack.reshape(horizon, n)
    ext = np.vstack([q_prev2, q_prev, blocks])  # indices shifted by 2
    vel = vel_op @ stack + vel_off
    acc = acc_op @ stack + acc_off
    for k in range(horizon):
        np.testing.assert_allclose(vel[k * n:(k + 1) * n], (ext[k + 2] - ext[k + 1]) / dt, atol=1e-9)
        np.testing.assert_allclose(
            acc[k * n:(k + 1) * n], (ext[k + 2] - 2 * ext[k + 1] + ext[k]) / dt**2, atol=1e-6
        )


@pytest.mark.parametrize("n,horizon", [(6, 10), (2, 2), (7, 20), (1, 0), (3, 1)])
def test_diff_matrices_match_blockwise_loop(n, horizon):
    # the block-by-block construction, kept as the reference: same values and
    # the same signs of zero; one block per free step (none at horizon 0)
    dt = 1e-3
    dim = horizon * n
    eye = np.eye(n)
    vel_ref = np.zeros((dim, dim))
    acc_ref = np.zeros((dim, dim))
    for k in range(horizon):
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


def test_kin_qp_band_is_the_lower_band_of_s_plus_s_transposed():
    # a dense reference from the same rollout, summed as the builder sums
    # it: the band of T + T', T holding the weighted J'J block of each step,
    # plus the band of Q + Q', Q the damping and acceleration costs' op' op;
    # nothing of S + S', S = T + Q, lies outside the band; from the rest
    # start on
    for ((cfg, rollout, _, _), _), problem in recorded_builds(
            mpc_kinematic, "build_kin_qp", "singularity_pass", "kin_mpc", "rs020n", 12):
        n = rollout.q_hat.shape[1]
        dim = cfg.horizon * n
        t = np.zeros((dim, dim))
        for k, jac in enumerate(rollout.j_stack[1:]):
            t[k * n:(k + 1) * n, k * n:(k + 1) * n] = (cfg.task_weight * jac.T) @ jac
        vel_op, acc_op = _diff_matrices(n, cfg.horizon, cfg.dt)
        q = (cfg.damping_weight * vel_op.T) @ vel_op + (cfg.accel_weight * acc_op.T) @ acc_op
        width = problem.H.shape[0] - 1
        assert width == 2 * n  # the acceleration cost reaches two steps
        np.testing.assert_array_equal(problem.H,
                                      lower_band(t + t.T, width) + lower_band(q + q.T, width))
        s = t + q
        assert not np.tril(s + s.T, -width - 1).any()


@pytest.mark.parametrize("damping, accel, reach", [(0.0, 0.0, 0), (1e-2, 0.0, 1), (0.0, 1e-7, 2),
                                                   (1e-2, 1e-7, 2)])
def test_kin_qp_band_reaches_as_far_as_its_weighted_difference_costs(rng, damping, accel, reach):
    # H's half-bandwidth is n - 1 (a step's task block) with neither
    # difference cost weighted, n with damping alone and 2n with an
    # acceleration cost; the band holds all of S + S'
    n, steps = 3, 5
    cfg = KinematicMpcConfig(horizon=steps - 1, dt=1e-2, task_weight=10.0,
                             damping_weight=damping, accel_weight=accel)
    rollout = NominalRollout(q_hat=rng.standard_normal((steps, n)), qd_hat=np.zeros((steps, n)),
                             j_stack=rng.standard_normal((steps, 2, n)),
                             err_stack=rng.standard_normal((steps, 2)))
    history = (rollout.q_hat[0], rollout.q_hat[0])
    problem = build_kin_qp(cfg, rollout, history, loose_limits(n))
    width = max(n - 1, reach * n)
    assert problem.H.shape == (width + 1, cfg.horizon * n)
    dim = cfg.horizon * n
    s = np.zeros((dim, dim))
    for k, jac in enumerate(rollout.j_stack[1:]):
        s[k * n:(k + 1) * n, k * n:(k + 1) * n] = (cfg.task_weight * jac.T) @ jac
    for op, weight in zip(_diff_matrices(n, cfg.horizon, cfg.dt), (damping, accel)):
        s += (weight * op.T) @ op
    assert not np.tril(s + s.T, -width - 1).any()
    np.testing.assert_allclose(problem.H, lower_band(s + s.T, width), rtol=0,
                               atol=1e-14 * np.abs(s).max())


def loose_limits(n):
    return JointLimits(q_min=np.full(n, -1e3), q_max=np.full(n, 1e3), v_max=np.full(n, 1e6),
                       u_max=np.ones(n))


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
    rot_t, pos_t, twists, _ = traj.window(0, cfg.horizon)
    rollout = ik_rollout(ChainState(desk_model, q0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                         traj.tasks, twists=twists)
    problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
    sol = qp.QpSolver().solve(problem)
    assert sol.status == qp.OPTIMAL
    np.testing.assert_allclose(sol.z_star, np.tile(q0, cfg.horizon), atol=1e-8)


def test_kin_qp_least_squares_fixed_point(desk_model, rng):
    # single step, no damping/accel cost, full-rank jacobian stack: q* = qhat
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=1, dt=1e-3, task_weight=10.0,
                             damping_weight=0.0, accel_weight=0.0)
    traj = make_traj_holding(desk_model, q0, 5, cfg.dt)
    rot_t, pos_t, twists, _ = traj.window(0, cfg.horizon)
    rollout = ik_rollout(ChainState(desk_model, q0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                         traj.tasks, twists=twists)
    problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
    sol = qp.QpSolver().solve(problem)
    np.testing.assert_allclose(sol.z_star, rollout.q_hat[1], atol=1e-7)


def test_singularity_scenario_weights_accepted(desk_model_large):
    cfg = KinematicMpcConfig(horizon=5, task_weight=2000.0, damping_weight=0.01)
    controller = KinematicMpc(desk_model_large, cfg)
    traj = scenario_trajectory("singularity_pass", desk_model_large, cfg.dt, duration=0.05)
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    res = controller.step(ChainState(desk_model_large, SINGULARITY_START_CONFIG), traj, 0)
    assert np.all(np.isfinite(res.q_cmd))


def test_step_stationary_target_is_fixed_point(desk_model, rng):
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=5, dt=1e-3, task_weight=100.0)
    traj = make_traj_holding(desk_model, q0, 50, cfg.dt)
    controller = KinematicMpc(desk_model, cfg)
    res = controller.step(ChainState(desk_model, q0), traj, 0)
    assert not res.degraded
    np.testing.assert_allclose(res.q_cmd, q0, atol=1e-6)


def test_step_velocity_limit_respected(desk_model, rng):
    q0 = random_config(desk_model, rng, margin=0.35)
    cfg = KinematicMpcConfig(horizon=4, dt=1e-3, task_weight=500.0)
    slow = with_velocity_limit(desk_model, 0.1)
    # target far enough that unconstrained tracking would need ~1 rad/s
    q_target = q0 + 0.15 * rng.choice([-1.0, 1.0], size=6)
    pose = forward_kinematics(desk_model, q_target)
    traj = TaskTrajectory(dt=cfg.dt, poses=(pose,) * 30)
    controller = KinematicMpc(slow, cfg)
    res = controller.step(ChainState(slow, q0), traj, 0)
    assert not res.degraded
    assert np.linalg.norm((res.q_cmd - q0) / cfg.dt, ord=np.inf) <= 0.1 + 1e-8


def test_step_full_plan_respects_bounds(desk_model, rng):
    q0 = random_config(desk_model, rng, margin=0.35)
    cfg = KinematicMpcConfig(horizon=6, dt=1e-3, task_weight=500.0)
    lim = desk_model.limits
    slow = with_velocity_limit(desk_model, 0.2)
    pose = forward_kinematics(desk_model, q0 + 0.2 * rng.standard_normal(6))
    traj = TaskTrajectory(dt=cfg.dt, poses=(pose,) * 30)
    controller = KinematicMpc(slow, cfg)
    res = controller.step(ChainState(slow, q0), traj, 0)
    vel_op, vel_off, _, _ = diff_ops(desk_model.n, cfg.horizon, cfg.dt, q0, q0)
    vel = vel_op @ res.solution.z_star + vel_off
    assert np.abs(vel).max() <= 0.2 + 1e-8
    assert np.all(res.solution.z_star <= np.tile(lim.q_max, cfg.horizon) + 1e-8)
    assert np.all(res.solution.z_star >= np.tile(lim.q_min, cfg.horizon) - 1e-8)


def test_terminal_constraint_enforced(desk_model, rng):
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=5, dt=1e-3, task_weight=100.0,
                             terminal_pos_tol=1e-4, terminal_vel_tol=1e-3)
    traj = make_traj_holding(desk_model, q0, 4, cfg.dt)  # window reaches the end
    controller = KinematicMpc(desk_model, cfg)
    res = controller.step(ChainState(desk_model, q0), traj, 0)
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
    res0 = controller.step(ChainState(desk_model, q0), traj, 0)
    assert res0.degraded
    np.testing.assert_allclose(res0.q_cmd, q0)  # hold = measured on first tick
    assert controller._widen_next


def plan_cost(cfg, rollout, history, plan):
    """Tracking + damping + accel objective of a position plan whose plan[0]
    is the applied command history[0]: the task terms of every step, the
    velocities and accelerations of the free steps plan[1:]."""
    stack = plan[1:].ravel()
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
        rot_t, pos_t, twists, _ = traj.window(0, horizon)
        rollout = ik_rollout(ChainState(desk_model, q0), rot_t, pos_t, cfg.dt, cfg.svd_threshold,
                             traj.tasks, twists=twists)
        problem = build_kin_qp(cfg, rollout, (q0, q0), desk_model.limits)
        sol = qp.QpSolver().solve(problem)
        assert sol.status == qp.OPTIMAL
        plan = np.vstack([q0, sol.z_star.reshape(horizon, 6)])
        costs[horizon] = plan_cost(cfg, rollout, (q0, q0), plan)
        if horizon == 6:
            nominal_stage = rollout.err_stack[6] @ np.diag(np.full(6, 100.0)) @ rollout.err_stack[6]
    assert costs[6] <= costs[5] + nominal_stage + 0.05 * abs(costs[5]) + 1e-9


def stacked_residuals(cfg, rollout, history, free):
    """Task, velocity and acceleration residuals of the free steps, written
    out step by step; their squared norm is the QP's objective up to a constant."""
    plan = np.vstack([history[1], history[0], free.reshape(cfg.horizon, -1)])  # from q_-1
    rows = []
    for k in range(1, cfg.horizon + 1):
        q_k, q_km1, q_km2 = plan[k + 1], plan[k], plan[k - 1]
        task = rollout.err_stack[k] - rollout.j_stack[k] @ (q_k - rollout.q_hat[k])
        rows += [np.sqrt(cfg.task_weight) * task,
                 np.sqrt(cfg.damping_weight) * (q_k - q_km1) / cfg.dt,
                 np.sqrt(cfg.accel_weight) * (q_k - 2 * q_km1 + q_km2) / cfg.dt**2]
    return np.concatenate(rows)


def least_squares_free_steps(cfg, rollout, history):
    """The free steps that minimize the squared stacked residuals, by lstsq;
    the residuals are affine in them, so column j is r(e_j) - r(0)."""
    dim = cfg.horizon * rollout.q_hat.shape[1]
    offset = stacked_residuals(cfg, rollout, history, np.zeros(dim))
    columns = np.array([stacked_residuals(cfg, rollout, history, e) - offset
                        for e in np.eye(dim)]).T
    return np.linalg.lstsq(columns, -offset, rcond=None)[0]


def test_free_stack_plan_matches_least_squares_oracle(desk_model_large, monkeypatch):
    # on a tick with no active inequality the plan minimizes the full
    # objective with plan[0] fixed to the applied command. The oracle has no
    # eps: lstsq over the stacked residuals, an affine map of the free steps.
    # The solver's own eps (about 1.1 here, against 1.7e5 for H's smallest
    # eigenvalue) moves the plan by eps |z| / lambda_min, about 1.4e-5 rad
    # at |z| = pi/2, so the solver runs at a hundredth of it
    from armmpc.simulator import default_scenario_config
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    regularization = qp._regularization
    monkeypatch.setattr(qp, "_regularization", lambda h: 1e-2 * regularization(h))
    cfg = default_scenario_config("singularity_pass", "kin_mpc")
    traj = scenario_trajectory("singularity_pass", desk_model_large, cfg.dt)
    controller = KinematicMpc(desk_model_large, cfg)
    q, compared = SINGULARITY_START_CONFIG, 0
    for tick in range(0, 400, 10):
        history = controller._history or (q, q)
        res = controller.step(ChainState(desk_model_large, q), traj, tick)
        assert not res.degraded
        np.testing.assert_array_equal(res.plan[0], history[0])
        q = res.q_cmd
        if res.solution.active_set:
            continue
        free = least_squares_free_steps(cfg, res.rollout, history)
        np.testing.assert_allclose(res.plan[1:].ravel(), free, rtol=0, atol=1e-6)
        oracle = np.vstack([history[0], free.reshape(cfg.horizon, -1)])
        assert plan_cost(cfg, res.rollout, history, oracle) <= (
            plan_cost(cfg, res.rollout, history, res.plan) * (1 + 1e-12))
        compared += 1
    assert compared >= 20


def test_kin_qp_matches_least_squares_oracle_on_a_random_rollout(rng):
    # Jacobians, errors and positions drawn independently for each step, so
    # a step of the rollout paired with the wrong block of the stack shows
    n, steps = 3, 5
    cfg = KinematicMpcConfig(horizon=steps - 1, dt=1e-2, task_weight=10.0,
                             damping_weight=1e-2, accel_weight=1e-7)
    q_hat = rng.standard_normal((steps, n))
    rollout = NominalRollout(q_hat=q_hat, qd_hat=np.zeros((steps, n)),
                             j_stack=rng.standard_normal((steps, 2, n)),
                             err_stack=rng.standard_normal((steps, 2)))
    history = (q_hat[0], q_hat[0] + 0.01 * rng.standard_normal(n))
    loose = JointLimits(q_min=np.full(n, -1e3), q_max=np.full(n, 1e3), v_max=np.full(n, 1e6),
                        u_max=np.ones(n))
    sol = qp.QpSolver().solve(build_kin_qp(cfg, rollout, history, loose))
    assert sol.status == qp.OPTIMAL and sol.active_set == ()
    free = least_squares_free_steps(cfg, rollout, history)
    np.testing.assert_allclose(sol.z_star, free, rtol=0, atol=1e-6)


def test_smoothing_vs_raw_ik_nominal(desk_model_large):
    # around the singular region the MPC command accelerations stay below the
    # raw truncated-SVD IK nominal's (full-run version lives in acceptance)
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    dt = 1e-3
    traj = scenario_trajectory("singularity_pass", desk_model_large, dt)
    rot_t, pos_t, twists, _ = traj.window(0, traj.n_samples - 1)
    nominal = ik_rollout(ChainState(desk_model_large, SINGULARITY_START_CONFIG), rot_t, pos_t,
                         dt, 1e-2, traj.tasks, twists=twists)
    lo, hi = 2300, 2650  # brackets the near-singular stretch on this model
    nominal_acc = np.abs(np.diff(nominal.q_hat[lo - 2:hi], 2, axis=0) / dt**2).max()

    cfg = KinematicMpcConfig(horizon=10, dt=dt, task_weight=2000.0, damping_weight=0.01,
                             accel_weight=2e-5, terminal_pos_tol=0.02, terminal_vel_tol=0.2)
    controller = KinematicMpc(desk_model_large, cfg)
    q = nominal.q_hat[lo].copy()
    cmds = [q.copy(), q.copy()]
    for tick in range(lo, hi):
        res = controller.step(ChainState(desk_model_large, q), traj, tick)
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
    first = ctl.step(ChainState(desk_model, q0), traj, 0)
    assert not first.degraded
    monkeypatch.setattr(qp, "_kkt_solve", lambda rows, hess, g, ids: (
        np.full(g.size, np.nan), np.full(len(ids), np.nan)))
    res = ctl.step(ChainState(desk_model, first.q_cmd), traj, 1)
    assert res.degraded and res.solution.status != qp.OPTIMAL
    np.testing.assert_array_equal(res.q_cmd, first.q_cmd)


def test_accepted_hot_start_makes_one_band_factor_and_one_back_solve(desk_model, rng, kkt_counts,
                                                                     monkeypatch):
    # the kinematic MPC's warm set is empty, so its start's KKT system is
    # H + eps I itself: one dpbtrs on the factor the convexity check made,
    # no banded KKT system and nothing factored densely
    judged = []
    judge = qp.QpSolver._try_hot_start
    monkeypatch.setattr(qp.QpSolver, "_try_hot_start",
                        lambda self, *args: judged.append(judge(self, *args)) or judged[-1])
    q0 = random_config(desk_model, rng)
    cfg = KinematicMpcConfig(horizon=4)
    traj = make_traj_holding(desk_model, q0, 20, cfg.dt)
    ctl = KinematicMpc(desk_model, cfg)
    first = ctl.step(ChainState(desk_model, q0), traj, 0)
    kkt_counts.update(dgbsv=0, dpbtrf=0, dpbtrs=0, dense=0, kkt=Counter())
    sol = ctl.step(ChainState(desk_model, first.q_cmd), traj, 1).solution
    assert judged[-1] is sol and sol.status == qp.OPTIMAL and sol.active_set == ()
    assert kkt_counts == {"dgbsv": 0, "dpbtrf": 1, "dpbtrs": 1, "dense": 0,
                          "kkt": {"_kkt_start": 1}}


def test_kinematic_tick_stays_within_its_call_budget():
    # a deterministic measure of what a tick costs, where wall-clock timings
    # are noisy: the function calls (sys.setprofile's call and c_call
    # events) of one horizon-10 KinematicMpc.step at tick 100 of the
    # singularity pass on rs020n; numpy operators such as @ and + make no
    # such event. Before the builder, the certificate, the IK step and the
    # chain pass were trimmed, this tick made 329 Python and 567 C calls;
    # before the model kept its chain constants and each chain state filled
    # its J once, 254 and 414; before its targets came as array slices, not
    # a list of Pose objects, 222 and 392
    counts = Counter()
    step = KinematicMpc.step

    def counted(self, state, traj, tick):
        if tick != 100:
            return step(self, state, traj, tick)
        sys.setprofile(lambda frame, event, arg: counts.update((event,)))
        try:
            return step(self, state, traj, tick)
        finally:
            sys.setprofile(None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KinematicMpc, "step", counted)
        cfg = simulator.default_scenario_config("singularity_pass", "kin_mpc")
        cfg.max_ticks = 101
        simulator.run_scenario("singularity_pass", "kin_mpc", load_bundled_model("rs020n"), cfg)
    assert cfg.horizon == 10
    assert counts["call"] <= 219 and counts["c_call"] <= 386, counts


@pytest.mark.parametrize("controller, budget", [("osc", (13, 26)), ("dyn_mpc", (320, 530))])
def test_operational_space_step_stays_within_its_call_budget(controller, budget):
    # the same measure for the operational-space step, at tick 100 of the
    # payload move on rs007n: the calls of osc_torque, the whole OSC
    # baseline's tick, and of osc_rollout, the dynamic MPC's nominal of ten
    # such steps and their chain states. Before the task force was stacked
    # over the levels and the truncated inverse called LAPACK's dsyevd
    # directly, they made 32 Python and 49 C calls, and 582 and 928; before
    # each chain state's dynamics came from one spatial pass about the end
    # effector, osc_rollout made 415 and 747; before the model kept its
    # chain constants and each chain state filled its J once, 14 and 27,
    # and 374 and 586; before the rollout's targets came as arrays, not
    # Pose objects, osc_rollout made 323 and 535
    module, name = {"osc": (simulator, "osc_torque"),
                    "dyn_mpc": (mpc_dynamic, "osc_rollout")}[controller]
    call = getattr(module, name)
    counts, seen = Counter(), []

    def counted(*args, **kwargs):
        seen.append(1)
        if len(seen) != 101:
            return call(*args, **kwargs)
        sys.setprofile(lambda frame, event, arg: counts.update((event,)))
        try:
            return call(*args, **kwargs)
        finally:
            sys.setprofile(None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, counted)
        cfg = simulator.default_scenario_config("payload_pick_place", controller)
        cfg.max_ticks = 101
        simulator.run_scenario("payload_pick_place", controller, load_bundled_model("rs007n"), cfg)
    assert cfg.horizon == 10 and len(seen) == 101
    assert counts["call"] <= budget[0] and counts["c_call"] <= budget[1], counts
