import filecmp
from dataclasses import fields, replace

import numpy as np
import pytest

from armmpc import load_bundled_model, nominal, simulator
from armmpc.dynamics import bias_forces, mass_matrix
from armmpc.kinematics import ChainState, forward_kinematics, pose_error_raw
from armmpc.mpc_dynamic import DynamicMpcConfig
from armmpc.mpc_kinematic import KinematicMpcConfig
from armmpc.nominal import default_task_hierarchy
from armmpc.simulator import (
    PositionLoopGains,
    ScenarioConfig,
    closed_loop,
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
        state = step_torque_plant(state, u_eq, 1e-3)
    np.testing.assert_allclose(state.q, q0, atol=1e-9)
    assert state.saturation_count == 0


def test_torque_plant_clamps(desk_model):
    state = make_plant_state(desk_model, np.zeros(6))
    u = np.full(6, 1e6)
    state = step_torque_plant(state, u, 1e-3)
    np.testing.assert_allclose(state.last_u, desk_model.limits.u_max)
    assert state.saturation_count == 1


def test_torque_plant_rejects_nan(desk_model):
    state = make_plant_state(desk_model, np.zeros(6))
    with pytest.raises(ValueError, match="finite"):
        step_torque_plant(state, np.full(6, np.nan), 1e-3)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("step", [step_torque_plant, step_position_plant])
def test_plants_reject_bad_dt(desk_model, step, dt):
    # NaN fails every comparison, so dt <= 0 alone would let it turn t and q into NaN
    state = make_plant_state(desk_model, np.zeros(6))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        step(state, np.zeros(6), dt)


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
            state = step_torque_plant(state, np.zeros(1), dt)
        drifts.append(abs(energy(state) - e0))
    assert drifts[1] < drifts[0]
    assert drifts[1] < 5e-3  # frozen regression ceiling at dt=1e-4


def test_position_plant_fixed_point(desk_model, rng):
    q0 = random_config(desk_model, rng)
    state = make_plant_state(desk_model, q0)
    for _ in range(20):
        state = step_position_plant(state, q0, 1e-3)
    np.testing.assert_allclose(state.q, q0, atol=1e-6)


def test_position_plant_one_chain_pass(desk_model, rng, chain_counts):
    q0 = random_config(desk_model, rng)
    state = make_plant_state(desk_model, q0, 0.3 * rng.standard_normal(6))
    chain_counts.update(passes=0, factors=0)
    step_position_plant(state, q0 + 0.01, 1e-3)
    assert chain_counts["passes"] == 1
    assert chain_counts["factors"] == 1


def test_position_plant_step_settles():
    # acceleration-unit gains: stiff, critically damped, stable at dt=1e-3
    model = make_gravity_pendulum(mass=1.0, length=0.5)
    gains = PositionLoopGains(kp=40_000.0, kd=400.0)  # omega 200/s, critically damped
    q0 = np.array([0.2])
    state = make_plant_state(model, q0)
    cmd = q0 + 1e-3
    for _ in range(50):
        state = step_position_plant(state, cmd, 1e-3, gains=gains)
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
            state = step_position_plant(state, cmd, 1e-3, gains=gains)
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


def test_run_scenario_flags_degraded_ticks_and_runs_empty(desk_model):
    # a terminal box far tighter than one tick can meet makes the QP infeasible
    q0 = np.zeros(6)
    traj = TaskTrajectory(dt=1e-3, poses=(forward_kinematics(desk_model, q0 + 0.5),) * 2)
    cfg = ScenarioConfig(horizon=2, terminal_pos_tol=1e-9, terminal_vel_tol=1e-9)
    out = run_scenario((traj, q0), "kin_mpc", desk_model, cfg)
    np.testing.assert_array_equal(out.flags, [1, 1])  # degraded, not saturated
    assert out.metrics.degraded_ticks == 2

    cfg.max_ticks = 0
    out = run_scenario((traj, q0), "kin_mpc", desk_model, cfg)
    for arr in (out.t, out.pos_err, out.ori_err, out.flags, out.metrics.accumulated_pos_err,
                out.metrics.accumulated_ori_err, out.metrics.per_tick_solve_time):
        assert arr.shape == (0,)
    for arr in (out.q, out.qd, out.u, out.cmd):
        assert arr.shape == (0, 6)
    assert out.flags.dtype.kind == "i"
    m = out.metrics
    assert (m.max_abs_qdd, m.limit_violations, m.saturated_ticks, m.degraded_ticks) == (0.0, 0, 0, 0)
    assert m.final_errors() == (0.0, 0.0)


@pytest.mark.parametrize("max_ticks", [-1, 2.5, "3", True])  # True used to run one tick
def test_run_scenario_rejects_bad_max_ticks(desk_model, max_ticks):
    # refused as the config is built, as every run setting is, and by
    # run_scenario's checked copy when set after the build
    q0 = np.zeros(6)
    traj = TaskTrajectory(dt=1e-3, poses=(forward_kinematics(desk_model, q0),) * 2)
    with pytest.raises(ValueError, match="max_ticks must be a (nonnegative integer|number)"):
        ScenarioConfig(max_ticks=max_ticks)
    cfg = ScenarioConfig()
    cfg.max_ticks = max_ticks
    with pytest.raises(ValueError, match="max_ticks must be a (nonnegative integer|number)"):
        run_scenario((traj, q0), "osc", desk_model, cfg)


# the run settings of the parent's ScenarioConfig, which declared them all
SCENARIO_DEFAULTS = {
    "dt": 1e-3, "horizon": 10, "svd_threshold": 1e-2, "task_weight": 10.0,
    "damping_weight": 1e-4, "accel_weight": 0.0, "input_weight": 0.0, "terminal_pos_tol": 0.02,
    "terminal_vel_tol": 0.2, "terminal_state_tol": 0.05, "payload": None,
    "position_gains": PositionLoopGains(), "duration": None, "max_ticks": None,
}


def test_scenario_config_is_a_config_of_both_mpcs():
    cfg = ScenarioConfig()
    assert isinstance(cfg, KinematicMpcConfig) and isinstance(cfg, DynamicMpcConfig)
    assert {f.name: getattr(cfg, f.name) for f in fields(cfg)} == SCENARIO_DEFAULTS
    # its own fields, and the five defaults that differ from the MPCs' own
    assert set(ScenarioConfig.__annotations__) == {
        "payload", "position_gains", "duration", "max_ticks", "task_weight", "damping_weight",
        "terminal_pos_tol", "terminal_vel_tol", "terminal_state_tol"}


BAD_SETTINGS = {"horizon-zero": {"horizon": 0}, "weight-negative": {"accel_weight": -1.0},
                "dt-nan": {"dt": float("nan")}, "tol-zero": {"terminal_state_tol": 0.0},
                "svd-one": {"svd_threshold": 1.0},
                "max-ticks-negative": {"max_ticks": -1}, "max-ticks-fraction": {"max_ticks": 2.5},
                "max-ticks-str": {"max_ticks": "3"}, "duration-zero": {"duration": 0.0},
                "duration-negative": {"duration": -1.0},
                "duration-nan": {"duration": float("nan")},
                "duration-inf": {"duration": float("inf")}}


@pytest.mark.parametrize("bad", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_a_bad_run_setting_is_refused_when_the_config_is_built(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ScenarioConfig(**bad)


@pytest.mark.parametrize("bad", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
@pytest.mark.parametrize("controller", ["osc", "kin_mpc", "dyn_mpc"])
def test_run_scenario_refuses_a_setting_changed_after_the_build(desk_model, monkeypatch, bad,
                                                                controller):
    started = []  # the plant is set up right before the first tick
    monkeypatch.setattr(simulator, "make_plant_state", lambda *args: started.append(args))
    cfg = ScenarioConfig(max_ticks=1)
    for name, value in bad.items():
        setattr(cfg, name, value)
    with pytest.raises(ValueError, match=next(iter(bad))):
        run_scenario("circle_2dof", controller, desk_model, cfg)
    assert not started


def test_interleaved_loops_leak_no_state(desk_model, desk_model_large):
    # the module-level caches the controllers share (QP structures, band
    # slots, difference operators, task hierarchies) hold pure functions of
    # their keys: runs stepped in turn log what each logs alone
    runs = [("singularity_pass", "kin_mpc", desk_model_large),
            ("payload_pick_place", "dyn_mpc", desk_model),
            ("payload_pick_place", "osc", desk_model)]

    def config(scenario, controller):
        return replace(default_scenario_config(scenario, controller), max_ticks=60)

    loops = [closed_loop(s, c, m, config(s, c)) for s, c, m in runs]
    for _ in range(60):
        for loop in loops:
            next(loop)
    for loop, (scenario, controller, model) in zip(loops, runs):
        with pytest.raises(StopIteration) as done:
            next(loop)
        alone = run_scenario(scenario, controller, model, config(scenario, controller))
        for name in ("q", "qd", "u", "cmd", "pos_err", "ori_err", "flags"):
            np.testing.assert_array_equal(getattr(done.value.value, name), getattr(alone, name))


def test_run_scenario_rejects_a_trajectory_at_another_dt(desk_model):
    # the controllers read one sample per tick and predict with cfg.dt, so a
    # trajectory sampled at another dt would play at the wrong speed
    q0 = np.zeros(6)
    pose = forward_kinematics(desk_model, q0)
    cfg = ScenarioConfig(max_ticks=1)
    for traj_dt in (2e-3, 1e-3 * (1 + 1e-6)):
        with pytest.raises(ValueError, match="sampled at dt"):
            run_scenario((TaskTrajectory(dt=traj_dt, poses=(pose,) * 2), q0), "osc", desk_model,
                         cfg)
    # a dt equal to cfg.dt up to round-off runs
    near = TaskTrajectory(dt=0.1 * 3 / 300, poses=(pose,) * 2)
    assert near.dt != cfg.dt
    assert run_scenario((near, q0), "osc", desk_model, cfg).t.shape == (1,)


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_run_scenario_rejects_a_duration_not_above_zero(desk_model_large, duration):
    # None takes the scenario's default duration; zero is no alias for it
    with pytest.raises(ValueError, match="duration must be finite and > 0"):
        run_scenario("singularity_pass", "kin_mpc", desk_model_large,
                     ScenarioConfig(duration=duration))


def test_metrics_report_of_an_empty_run(desk_model, tmp_path):
    q0 = np.zeros(6)
    traj = TaskTrajectory(dt=1e-3, poses=(forward_kinematics(desk_model, q0),) * 2)
    out = run_scenario((traj, q0), "osc", desk_model, ScenarioConfig(max_ticks=0))
    write_metrics_report(out, tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    assert "ticks: 0" in lines and "accumulated_pos_err_final: 0" in lines


def test_final_errors_of_a_run(desk_model):
    # the last accumulated value of each error series
    q0 = np.zeros(6)
    traj = TaskTrajectory(dt=1e-3, poses=(forward_kinematics(desk_model, q0 + 0.1),) * 3)
    m = run_scenario((traj, q0), "osc", desk_model, ScenarioConfig()).metrics
    assert m.final_errors() == (m.accumulated_pos_err[-1], m.accumulated_ori_err[-1])
    assert m.final_errors()[0] > 0.0


@pytest.mark.parametrize("scenario,controller,robot,per_tick", [
    ("payload_pick_place", "osc", "rs007n", 1),  # the plant's next
    ("singularity_pass", "kin_mpc", "rs020n", 11),  # 10 IK rollout states, the plant's next
    ("payload_pick_place", "dyn_mpc", "rs007n", 11),  # 10 OSC rollout states, the plant's next
])
def test_run_scenario_chain_states_per_tick(chain_counts, monkeypatch, scenario, controller,
                                            robot, per_tick):
    # one chain state per measured configuration: the plant builds the next
    # one, and the error log, the OSC and each rollout's first step read it;
    # the IK's later steps are fk_jacobian_raw's chain passes
    model = load_bundled_model(robot)
    fk_jacobian_raw, fk_calls = nominal.fk_jacobian_raw, []
    monkeypatch.setattr(nominal, "fk_jacobian_raw",
                        lambda *args: fk_calls.append(args) or fk_jacobian_raw(*args))
    passes, fk = [], []
    for ticks in (20, 40):
        cfg = default_scenario_config(scenario, controller)
        cfg.max_ticks = ticks
        chain_counts.update(passes=0)
        fk_calls.clear()
        run_scenario(scenario, controller, model, cfg)
        passes.append(chain_counts["passes"])
        fk.append(len(fk_calls))
    assert passes[1] - passes[0] == 20 * per_tick
    assert fk[1] - fk[0] == 20 * (per_tick - 1 if controller == "kin_mpc" else 0)


@pytest.mark.parametrize("scenario,controller,robot", [
    ("payload_pick_place", "osc", "rs007n"),
    ("singularity_pass", "kin_mpc", "rs020n"),
    ("payload_pick_place", "dyn_mpc", "rs007n"),
])
def test_logged_errors_are_read_from_the_plants_frames(scenario, controller, robot):
    # the log takes pose_error_raw at the plant's own world frames, with no
    # round trip through a quaternion, so it matches bit for bit
    model = load_bundled_model(robot)
    cfg = default_scenario_config(scenario, controller)
    cfg.max_ticks = 50
    out = run_scenario(scenario, controller, model, cfg)
    traj = scenario_trajectory(scenario, model, cfg.dt, duration=cfg.duration)
    for k in range(50):
        chain = ChainState(model, out.q[k])
        err = pose_error_raw(traj.poses.rotation_matrix[k], traj.poses.translation[k],
                             chain.ee_rot, chain.ee_pos)
        assert out.pos_err[k] == np.linalg.norm(err[:3])
        assert out.ori_err[k] == np.linalg.norm(err[3:])


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


@pytest.mark.parametrize("controller", ["osc", "dyn_mpc"])
def test_torque_controllers_run_past_six_joints(seven_joint_model, controller):
    # circle_2dof pads q0 to the model's joints; the posture gains must too
    cfg = default_scenario_config("circle_2dof", controller)
    cfg.max_ticks = 3
    out = run_scenario("circle_2dof", controller, seven_joint_model, cfg)
    assert out.cmd.shape == (3, 7)
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

