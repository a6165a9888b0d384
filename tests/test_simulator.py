import filecmp

import numpy as np
import pytest

from armmpc.dynamics import bias_forces, mass_matrix
from armmpc.kinematics import forward_kinematics
from armmpc.nominal import default_task_hierarchy
from armmpc.simulator import (
    PositionLoopGains,
    ScenarioConfig,
    default_scenario_config,
    ik_baseline_sequence,
    make_plant_state,
    run_scenario,
    step_position_plant,
    step_torque_plant,
    write_log_csv,
    write_metrics_report,
    write_timing_csv,
)
from armmpc.trajgen import TaskTrajectory, scenario_trajectory

from conftest import make_gravity_pendulum, random_config


def test_torque_plant_equilibrium(desk_model, rng):
    q0 = random_config(desk_model, rng)
    state = make_plant_state(desk_model, q0)
    u_eq = bias_forces(desk_model, q0, np.zeros(6))
    for _ in range(10):
        state = step_torque_plant(desk_model, state, u_eq, 1e-3)
    np.testing.assert_allclose(state.q, q0, atol=1e-9)
    assert state.saturation_count == 0


def test_torque_plant_clamps(desk_model):
    state = make_plant_state(desk_model, np.zeros(6))
    u = np.full(6, 1e6)
    state = step_torque_plant(desk_model, state, u, 1e-3)
    np.testing.assert_allclose(state.last_u, desk_model.limits.u_max)
    assert state.saturation_count == 1


def test_torque_plant_rejects_nan(desk_model):
    state = make_plant_state(desk_model, np.zeros(6))
    with pytest.raises(ValueError, match="finite"):
        step_torque_plant(desk_model, state, np.full(6, np.nan), 1e-3)


def test_pendulum_energy_drift_shrinks_with_dt():
    model = make_gravity_pendulum()

    def energy(state):
        kin = 0.5 * state.qd @ mass_matrix(model, state.q) @ state.qd
        pot = 9.81 * np.sin(state.q[0])  # m * g * l * height of the mass
        return kin + pot

    drifts = []
    for dt in (1e-3, 1e-4):
        state = make_plant_state(model, np.zeros(1))
        e0 = energy(state)
        for _ in range(int(round(1.0 / dt))):
            state = step_torque_plant(model, state, np.zeros(1), dt)
        drifts.append(abs(energy(state) - e0))
    assert drifts[1] < drifts[0]
    assert drifts[1] < 5e-3  # frozen regression ceiling at dt=1e-4


def test_position_plant_fixed_point(desk_model, rng):
    q0 = random_config(desk_model, rng)
    state = make_plant_state(desk_model, q0)
    for _ in range(20):
        state = step_position_plant(desk_model, state, q0, 1e-3)
    np.testing.assert_allclose(state.q, q0, atol=1e-6)


def test_position_plant_step_settles():
    # acceleration-unit gains: stiff, critically damped, stable at dt=1e-3
    model = make_gravity_pendulum(mass=1.0, length=0.5)
    gains = PositionLoopGains(kp=40_000.0, kd=400.0)  # omega 200/s, critically damped
    q0 = np.array([0.2])
    state = make_plant_state(model, q0)
    cmd = q0 + 1e-3
    for _ in range(50):
        state = step_position_plant(model, state, cmd, 1e-3, gains=gains)
    assert abs(state.q[0] - cmd[0]) <= 1e-5


def test_position_plant_ramp_lag_scales_with_kp():
    model = make_gravity_pendulum(mass=0.5, length=0.4)
    rate = 0.3
    lags = []
    for kp in (200.0, 800.0):
        state = make_plant_state(model, np.zeros(1))
        gains = PositionLoopGains(kp=kp, kd=20.0)
        for k in range(1500):
            cmd = np.array([rate * (k + 1) * 1e-3])
            state = step_position_plant(model, state, cmd, 1e-3, gains=gains)
        lags.append(cmd[0] - state.q[0])
    ratio = lags[0] / lags[1]
    assert 2.0 <= ratio <= 8.0  # roughly inverse in kp


def test_run_scenario_unknown_controller(desk_model):
    with pytest.raises(ValueError, match="unknown controller"):
        run_scenario("circle_2dof", "nope", desk_model)


def test_run_scenario_zero_length(desk_model):
    pose = forward_kinematics(desk_model, np.zeros(6))
    traj = TaskTrajectory(dt=1e-3, poses=(pose,), tasks=default_task_hierarchy())
    cfg = ScenarioConfig(horizon=2)
    out = run_scenario((traj, np.zeros(6)), "osc", desk_model, cfg)
    assert out.t.shape[0] == 1  # single-sample trajectory runs one tick


def test_run_scenario_osc_accumulates_monotone(planar_2dof):
    cfg = ScenarioConfig(task_weight=100.0, damping_weight=1e-3, duration=0.5)
    out = run_scenario("circle_2dof", "osc", planar_2dof, cfg)
    assert np.all(np.diff(out.metrics.accumulated_pos_err) >= 0)
    assert np.all(np.diff(out.metrics.accumulated_ori_err) >= 0)
    assert out.u.shape == (out.t.shape[0], 2)
    assert np.all(np.abs(out.u) <= planar_2dof.limits.u_max[None, :] + 1e-12)


def test_run_scenario_kin_mpc_short(desk_model_large):
    cfg = default_scenario_config("singularity_pass", "kin_mpc")
    cfg.max_ticks = 100  # first slice of the full-duration trajectory
    cfg.horizon = 5
    out = run_scenario("singularity_pass", "kin_mpc", desk_model_large, cfg)
    assert out.t.shape[0] == 100
    assert out.metrics.degraded_ticks == 0
    assert np.all(np.isfinite(out.cmd))


def test_ik_baseline_sequence_matches_rollout(desk_model_large):
    from armmpc.trajgen import SINGULARITY_START_CONFIG

    traj = scenario_trajectory("singularity_pass", desk_model_large, 1e-3, duration=0.2)
    q_seq, qd_seq = ik_baseline_sequence(desk_model_large, traj, SINGULARITY_START_CONFIG)
    assert q_seq.shape == (201, 6)
    np.testing.assert_allclose(q_seq[0], SINGULARITY_START_CONFIG)
    # integration consistency
    np.testing.assert_allclose(q_seq[1], q_seq[0] + 1e-3 * qd_seq[0], atol=1e-12)


def test_logs_deterministic_across_runs(planar_2dof, tmp_path):
    cfg = ScenarioConfig(task_weight=100.0, damping_weight=1e-3, duration=0.3)
    paths = []
    for tag in ("a", "b"):
        out = run_scenario("circle_2dof", "osc", planar_2dof, cfg)
        log = tmp_path / f"{tag}_log.csv"
        rep = tmp_path / f"{tag}_metrics.txt"
        write_log_csv(out, log)
        write_metrics_report(out, rep)
        write_timing_csv(out, tmp_path / f"{tag}_timing.csv")
        paths.append((log, rep))
    assert filecmp.cmp(paths[0][0], paths[1][0], shallow=False)
    assert filecmp.cmp(paths[0][1], paths[1][1], shallow=False)


def test_log_csv_columns(planar_2dof, tmp_path):
    cfg = ScenarioConfig(task_weight=100.0, damping_weight=1e-3, duration=0.05)
    out = run_scenario("circle_2dof", "osc", planar_2dof, cfg)
    path = tmp_path / "log.csv"
    write_log_csv(out, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "q0", "q1", "qd0", "qd1", "u0", "u1", "cmd0", "cmd1",
                      "pos_err", "ori_err", "flags"]
