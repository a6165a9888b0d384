"""The tick policy both MPCs share: config checks, the measured state, hold,
widen, warm start, reset."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armmpc import load_bundled_model, mpc_dynamic, mpc_kinematic, qp, simulator, trajgen
from armmpc.dynamics import RigidBodyState
from armmpc.checks import lower_band
from armmpc.horizon import TERMINAL_WIDEN, hessian_band
from armmpc.kinematics import ChainState, Pose, forward_kinematics
from armmpc.nominal import default_posture, default_task_hierarchy
from armmpc.trajgen import TaskTrajectory

from conftest import random_config


def hold(model, q, steps):
    pose = forward_kinematics(model, q)
    return TaskTrajectory(dt=1e-3, poses=(pose,) * steps, tasks=default_task_hierarchy())


@pytest.mark.parametrize("kind", ["kinematic", "dynamic"])
def test_degraded_tick_holds_widens_and_resets(desk_model, rng, monkeypatch, kind):
    q0 = random_config(desk_model, rng)
    q_bad = q0.copy()
    q_bad[1] = desk_model.limits.q_max[1] + 0.01
    qd_bad = np.zeros(6)
    qd_bad[1] = 0.5
    if kind == "kinematic":
        module, builder = mpc_kinematic, "build_kin_qp"
        ctl = mpc_kinematic.KinematicMpc(desk_model, mpc_kinematic.KinematicMpcConfig(horizon=4))

        def step(q, qd, traj):
            return ctl.step(ChainState(desk_model, q), traj, 0)
    else:
        module, builder = mpc_dynamic, "build_dyn_qp"
        ctl = mpc_dynamic.DynamicMpc(desk_model, mpc_dynamic.DynamicMpcConfig(horizon=4),
                                     posture=default_posture(q0))

        def step(q, qd, traj):
            return ctl.step(RigidBodyState(desk_model, q, qd), traj, 0)

    widens, warm_starts = [], []
    build, solve = getattr(module, builder), ctl.solver.solve

    def recording_build(*args, terminal_widen=None, **kwargs):
        widens.append(terminal_widen)
        return build(*args, terminal_widen=terminal_widen, **kwargs)

    def recording_solve(problem, warm_start=None):
        warm_starts.append(warm_start)
        return solve(problem, warm_start=warm_start)

    monkeypatch.setattr(module, builder, recording_build)
    monkeypatch.setattr(ctl.solver, "solve", recording_solve)
    rest = np.zeros(6)

    first = step(q0, rest, hold(desk_model, q0, 40))  # window short of the end
    assert not first.degraded and widens == [None] and warm_starts == [None]

    # the rollout ends past q_max[1], so the terminal box crosses the bound
    # and the problem is rejected before it reaches the solver
    bad = step(q_bad, qd_bad, hold(desk_model, q_bad, 3))
    assert bad.degraded and bad.solution is None
    assert widens[-1] == 1.0 and len(warm_starts) == 1
    if kind == "kinematic":
        np.testing.assert_array_equal(bad.q_cmd, first.q_cmd)  # the last command
    else:
        u_max = desk_model.limits.u_max
        np.testing.assert_array_equal(bad.u_cmd, np.clip(bad.rollout.u_hat[0], -u_max, u_max))

    widened = step(q0, rest, hold(desk_model, q0, 3))
    assert widens[-1] == TERMINAL_WIDEN == 10.0 and warm_starts[-1] is None
    assert not widened.degraded and widened.solution.status == qp.OPTIMAL

    again = step(q0, rest, hold(desk_model, q0, 3))
    assert widens[-1] == 1.0 and warm_starts[-1] == widened.solution.active_set
    assert not again.degraded

    ctl.reset()
    step(q0, rest, hold(desk_model, q0, 3))
    assert warm_starts[-1] is None and widens[-1] == 1.0


@pytest.mark.parametrize("horizon", [2.5, 3.0, "4", True])
def test_horizon_must_be_an_integer(horizon):
    # 2.5 used to construct and fail with TypeError at the first step; True,
    # an int to Python, used to pass as a horizon of 1
    with pytest.raises(ValueError, match="horizon must be an integer"):
        mpc_kinematic.KinematicMpcConfig(horizon=horizon)


@pytest.mark.parametrize("config, field", [
    (mpc_kinematic.KinematicMpcConfig, "dt"),
    (mpc_kinematic.KinematicMpcConfig, "svd_threshold"),
    (mpc_kinematic.KinematicMpcConfig, "task_weight"),
    (mpc_kinematic.KinematicMpcConfig, "accel_weight"),
    (mpc_kinematic.KinematicMpcConfig, "terminal_pos_tol"),
    (mpc_kinematic.KinematicMpcConfig, "terminal_vel_tol"),
    (mpc_dynamic.DynamicMpcConfig, "damping_weight"),
    (mpc_dynamic.DynamicMpcConfig, "input_weight"),
    (mpc_dynamic.DynamicMpcConfig, "terminal_state_tol"),
], ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("value", [True, False])
def test_config_rejects_a_bool(config, field, value):
    # float(True) is 1.0: dt=True used to run at dt = 1 s, and
    # terminal_state_tol=True used to pass as a tolerance of 1
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        config(**{field: value})


@pytest.mark.parametrize("kind", ["kinematic", "dynamic"])
def test_step_rejects_a_state_of_another_model(desk_model, rng, kind):
    # the controller reads the state's frames, M and b as its model's own
    twin = replace(desk_model)  # the same numbers, another model
    q0 = random_config(desk_model, rng)
    if kind == "kinematic":
        ctl = mpc_kinematic.KinematicMpc(desk_model, mpc_kinematic.KinematicMpcConfig(horizon=2))
    else:
        ctl = mpc_dynamic.DynamicMpc(desk_model, mpc_dynamic.DynamicMpcConfig(horizon=2),
                                     posture=default_posture(q0))
    traj = hold(desk_model, q0, 5)
    with pytest.raises(ValueError, match="another model"):
        ctl.step(RigidBodyState(twin, q0), traj, 0)
    assert not ctl.step(RigidBodyState(desk_model, q0), traj, 0).degraded


def test_dynamic_step_rejects_a_plain_chain_state(desk_model, rng):
    # the dynamic MPC reads qd, M and b, which a ChainState does not carry:
    # it used to fail deep in the rollout on a missing attribute
    q0 = random_config(desk_model, rng)
    ctl = mpc_dynamic.DynamicMpc(desk_model, mpc_dynamic.DynamicMpcConfig(horizon=2),
                                 posture=default_posture(q0))
    with pytest.raises(ValueError, match="RigidBodyState"):
        ctl.step(ChainState(desk_model, q0), hold(desk_model, q0, 5), 0)


@pytest.mark.parametrize("kind, entry", [("kinematic", "q"), ("kinematic", "qd"),
                                         ("dynamic", "qd")])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_step_rejects_a_measured_state_that_is_not_finite(desk_model, rng, kind, entry, value):
    # a NaN configuration used to fail in the IK rollout's eigh, and a NaN
    # velocity in a mass matrix of the rollout's next state, named by its q
    q0 = random_config(desk_model, rng)
    traj = hold(desk_model, q0, 5)
    if kind == "kinematic":
        ctl = mpc_kinematic.KinematicMpc(desk_model, mpc_kinematic.KinematicMpcConfig(horizon=2))
    else:
        ctl = mpc_dynamic.DynamicMpc(desk_model, mpc_dynamic.DynamicMpcConfig(horizon=2),
                                     posture=default_posture(q0))
    q, qd = q0.copy(), np.zeros(6)
    (q if entry == "q" else qd)[2] = value
    if entry == "q":
        # a RigidBodyState refuses a non-finite q when it is built (M is not
        # finite), so only the kinematic MPC can get one, in a plain ChainState
        with np.errstate(invalid="ignore"):  # the sine and cosine of an infinite q
            state = ChainState(desk_model, q)
        with pytest.raises(ValueError, match="measured state is not finite"):
            ctl.step(state, traj, 0)
    else:
        # and a non-finite qd, before its velocity pass (so without a numpy
        # warning): no controller can get one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="qd is not finite"):
                RigidBodyState(desk_model, q, qd)
    assert not ctl.step(RigidBodyState(desk_model, q0), traj, 0).degraded


@pytest.mark.parametrize("kind", ["kinematic", "dynamic"])
def test_step_rejects_a_trajectory_sampled_at_another_dt(kind):
    # a tick reads one sample and plans steps of the config's dt: the
    # singularity pass sampled at 4 ms used to be tracked four times too
    # slowly, every tick optimal and none degraded
    model = load_bundled_model("rs020n")
    q0 = trajgen.scenario_initial_config("singularity_pass", model)
    if kind == "kinematic":
        ctl = mpc_kinematic.KinematicMpc(model, mpc_kinematic.KinematicMpcConfig(dt=1e-3))
    else:
        ctl = mpc_dynamic.DynamicMpc(model, mpc_dynamic.DynamicMpcConfig(dt=1e-3),
                                     posture=default_posture(q0))
    coarse = trajgen.scenario_trajectory("singularity_pass", model, 4e-3)
    with pytest.raises(ValueError, match="sampled at dt = 0.004, the controller ticks at 0.001"):
        ctl.step(RigidBodyState(model, q0), coarse, 0)
    # within run_scenario's relative tolerance of 1e-9 the dts agree
    first = Pose(coarse.poses.quaternion[:20], coarse.poses.translation[:20])
    close = TaskTrajectory(dt=1e-3 * (1 + 1e-12), poses=first, tasks=coarse.tasks)
    assert not ctl.step(RigidBodyState(model, q0), close, 0).degraded


def test_negative_tick_is_rejected(desk_model, rng):
    # window(-1, 2) used to wrap around and plan toward the last pose
    q0 = random_config(desk_model, rng)
    far = random_config(desk_model, rng)
    traj = TaskTrajectory(dt=1e-3, poses=(forward_kinematics(desk_model, q0),) * 5
                          + (forward_kinematics(desk_model, far),),
                          tasks=default_task_hierarchy())
    for start, horizon in ((-1, 2), (0, -1), (-3, -3)):
        with pytest.raises(ValueError, match="start and horizon"):
            traj.window(start, horizon)
    rot_t, pos_t, twists, includes_end = traj.window(0, 0)
    assert rot_t.shape == (1, 3, 3) and pos_t.shape == (1, 3) and twists.shape == (1, 6)
    assert not includes_end
    kin = mpc_kinematic.KinematicMpc(desk_model, mpc_kinematic.KinematicMpcConfig(horizon=2))
    dyn = mpc_dynamic.DynamicMpc(desk_model, mpc_dynamic.DynamicMpcConfig(horizon=2),
                                 posture=default_posture(q0))
    state = RigidBodyState(desk_model, q0)
    for step in (kin.step, dyn.step):
        with pytest.raises(ValueError, match="start and horizon"):
            step(state, traj, -1)
        assert not step(state, traj, 0).degraded


@pytest.fixture
def setups():
    """How many patterns qp._setup has set up since the test began."""
    qp._setup.cache_clear()
    return lambda: qp._setup.cache_info().misses


@pytest.mark.parametrize("scenario, controller, model", [
    ("singularity_pass", "kin_mpc", "rs020n"), ("payload_pick_place", "dyn_mpc", "rs007n")])
def test_qp_is_set_up_once_per_controller(setups, scenario, controller, model):
    # off the scenario's rest start every tick's QP has one pattern: it is
    # set up on the controller's first tick, and the later ticks only fill
    # in values
    robot = load_bundled_model(model)
    cfg = simulator.default_scenario_config(scenario, controller)
    cfg.max_ticks = 50
    traj = trajgen.scenario_trajectory(scenario, robot, cfg.dt, duration=cfg.duration)
    q0 = trajgen.scenario_initial_config(scenario, robot) + 1e-3
    result = simulator.run_scenario((traj, q0), controller, robot, cfg)
    assert len(result.q) == 50 and result.metrics.degraded_ticks == 0
    assert setups() == 1


def test_terminal_box_on_an_unbounded_joint_gets_a_fresh_setup(desk_model, rng, setups):
    # with no upper limit on joint 0, the terminal box that appears when the
    # window reaches the trajectory end makes that bound finite: a new
    # pattern, set up afresh, whose active sets name the new rows
    first = desk_model.joints[0]
    unbounded = replace(desk_model, joints=(replace(first, q_limits=(first.q_limits[0], np.inf)),)
                        + desk_model.joints[1:])
    ctl = mpc_kinematic.KinematicMpc(unbounded, mpc_kinematic.KinematicMpcConfig(horizon=4))
    problems, set_up = [], []
    build = mpc_kinematic.build_kin_qp

    def recording_build(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    q = random_config(desk_model, rng)
    traj = hold(desk_model, q, 8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc_kinematic, "build_kin_qp", recording_build)
        for tick in range(6):
            res = ctl.step(ChainState(unbounded, q), traj, tick)
            assert not res.degraded
            sol = res.solution
            assert qp.kkt_check(problems[-1], sol.z_star, sol.active_set,
                                sol.multipliers).max() <= 1e-8 * (1 + np.linalg.norm(problems[-1].g))
            q = res.q_cmd
            set_up.append(setups())
    ends = [np.isfinite(p.ub).sum() for p in problems]
    assert ends[:3] == [ends[0]] * 3 and ends[3:] == [ends[0] + 1] * 3  # the box from tick 3 on
    assert set_up == [1, 1, 1, 2, 2, 2]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hessian_band_is_the_lower_band_of_the_dense_s_plus_s_transposed(data):
    # count blocks of n x n, evenly spaced from first, neither overlapping
    # nor reaching past d, read into a band at least as wide as a block:
    # exactly the band of S + S' for the dense block-diagonal S
    count = data.draw(st.integers(1, 4), label="count")
    n = data.draw(st.integers(1, 4), label="n")
    first = data.draw(st.integers(0, 3), label="first")
    stride = data.draw(st.integers(n, n + 3), label="stride")
    d = first + (count - 1) * stride + n + data.draw(st.integers(0, 3), label="tail")
    width = data.draw(st.integers(n - 1, d - 1), label="width")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = rng.standard_normal((count, n, n))
    s = np.zeros((d, d))
    for k, block in enumerate(blocks):
        at = first + k * stride
        s[at:at + n, at:at + n] = block
    band = hessian_band(blocks, first, stride, d, width)
    assert band.shape == (width + 1, d)
    np.testing.assert_array_equal(band, lower_band(s + s.T, width))
