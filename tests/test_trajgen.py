import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armmpc.kinematics import Pose, canonical_quat, forward_kinematics, quat_to_matrix
from armmpc.nominal import default_task_hierarchy
from armmpc.trajgen import (
    SINGULARITY_END_CONFIG,
    SINGULARITY_START_CONFIG,
    TaskTrajectory,
    cubic_spline_position,
    export_trajectory_csv,
    _smooth_profile,
    quaternion_interp,
    scenario_initial_config,
    scenario_trajectory,
    step_count,
    waypoint_trajectory,
)

from conftest import rotvec_from_matrix, rotvec_to_matrix


def test_spline_constant_trajectory():
    ts, pos, vel = cubic_spline_position([(0.0, (1, 2, 3)), (1.0, (1, 2, 3))], 0.1)
    np.testing.assert_allclose(pos, np.tile([1, 2, 3], (11, 1)), atol=1e-12)
    np.testing.assert_allclose(vel, 0.0, atol=1e-12)


def test_spline_straight_line_stays_on_segment():
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([1.0, 2.0, -1.0])
    ts, pos, vel = cubic_spline_position([(0.0, a), (0.5, 0.5 * (a + b)), (1.0, b)], 0.01)
    # collinearity: every sample is a + s*(b - a)
    s = pos @ (b - a) / (b @ b)
    np.testing.assert_allclose(pos, np.outer(s, b - a), atol=1e-12)
    np.testing.assert_allclose(vel[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(vel[-1], 0.0, atol=1e-12)


def test_spline_interpolates_and_is_c2(rng):
    wps = [(float(t), rng.standard_normal(3)) for t in range(5)]
    dt = 1e-3
    ts, pos, vel = cubic_spline_position(wps, dt)
    for t, p in wps:
        idx = int(round((t - wps[0][0]) / dt))
        np.testing.assert_allclose(pos[idx], p, atol=1e-12)
    # C2: second differences have no jumps above the dt-scale at the knots
    acc = np.diff(pos, 2, axis=0) / dt**2
    jerk = np.abs(np.diff(acc, axis=0)).max(axis=1)
    assert jerk.max() <= np.abs(acc).max() * 1e-1


@pytest.mark.parametrize("dt", [0.4, 0.35])
def test_spline_over_a_span_of_no_whole_number_of_steps_rejected(dt):
    # sampled at 0.4 the move used to stop at t = 0.8, short of rest (speed
    # 0.96); at 0.35 its last step was 0.30, not dt
    with pytest.raises(ValueError, match=rf"duration 1.0 s .* dt = {dt} s"):
        cubic_spline_position([(0.0, (0, 0, 0)), (1.0, (1, 1, 1))], dt)


@pytest.mark.parametrize("scenario", ["singularity_pass", "payload_pick_place", "circle_2dof"])
def test_scenario_of_no_whole_number_of_steps_rejected(desk_model, scenario):
    with pytest.raises(ValueError, match="not a whole number of steps"):
        scenario_trajectory(scenario, desk_model, 0.3, duration=1.0)
    assert scenario_trajectory(scenario, desk_model, 0.25, duration=1.0).n_samples == 5


@pytest.mark.parametrize("scenario", ["singularity_pass", "payload_pick_place", "circle_2dof"])
@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_scenario_with_a_dt_not_finite_and_positive_is_rejected(desk_model, scenario, dt):
    # the same value as a span is refused too; dt 0 or below used to end in an OverflowError, a ZeroDivisionError or an
    # IndexError, and step_count(1.0, -1e-3) counted -1000 steps
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0"):
        scenario_trajectory(scenario, desk_model, dt)
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0"):
        step_count(1.0, dt)
    with pytest.raises(ValueError, match=r"^duration must be finite and > 0"):
        step_count(dt, 1e-3)


def test_spline_duplicate_times_rejected():
    with pytest.raises(ValueError, match="increasing"):
        cubic_spline_position([(0.0, (0, 0, 0)), (0.0, (1, 1, 1))], 0.1)


def test_slerp_endpoints():
    qa = np.array([1.0, 0.0, 0.0, 0.0])
    qb = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
    np.testing.assert_allclose(quaternion_interp(qa, qb, 0.0), qa, atol=1e-15)
    np.testing.assert_allclose(quaternion_interp(qa, qb, 1.0), qb, atol=1e-12)


def test_slerp_antipodal_sign():
    qa = np.array([1.0, 0.0, 0.0, 0.0])
    qb = np.array([math.cos(0.4), 0.0, math.sin(0.4), 0.0])
    direct = quaternion_interp(qa, qb, 0.3)
    flipped = quaternion_interp(qa, -qb, 0.3)
    np.testing.assert_allclose(direct, flipped, atol=1e-12)


def test_slerp_bisects_z_rotation():
    qa = np.array([1.0, 0.0, 0.0, 0.0])
    qb = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])  # 90 deg about z
    mid = quaternion_interp(qa, qb, 0.5)
    expected = rotvec_to_matrix([0, 0, math.pi / 4])
    np.testing.assert_allclose(quat_to_matrix(mid), expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_slerp_unit_canonical(seed, s):
    rng = np.random.default_rng(seed)
    qa = rng.standard_normal(4)
    qb = rng.standard_normal(4)
    qa /= np.linalg.norm(qa)
    qb /= np.linalg.norm(qb)
    out = quaternion_interp(qa, qb, s)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    assert out[0] >= 0 or (out[0] == 0 and np.any(out[1:] > 0))


def scalar_slerp(q_start, q_end, s):
    """Shortest-path slerp (Shoemake, 1985) of unit quaternions at one
    fraction s, from the sine weights of the two ends: the oracle for the
    trajectories' array slerp."""
    qa = np.asarray(q_start, dtype=float)
    qb = np.asarray(q_end, dtype=float)
    dot = float(qa @ qb)
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        out = qa + s * (qb - qa)
        return canonical_quat(out / np.linalg.norm(out))
    theta = math.acos(min(1.0, dot))
    sin_theta = math.sin(theta)
    wa = math.sin((1.0 - s) * theta) / sin_theta
    wb = math.sin(s * theta) / sin_theta
    out = wa * qa + wb * qb
    return canonical_quat(out / np.linalg.norm(out))


def scalar_slerp_rotvec(q_start, q_end):
    """World-frame rotation vector of the slerp from q_start to q_end, the
    log map of R_end R_start'."""
    return rotvec_from_matrix(quat_to_matrix(q_end) @ quat_to_matrix(q_start).T)


# the array slerp composes q_start with exp(s log(q_start^-1 q_end)) and the
# oracle weighs the two ends by sines, so the quaternions agree to a few ulps
# of 1; the oracle's rates come from an arccos, which loses digits near 0 and
# pi, so the rates (up to 5 rad/s here) agree to a few hundred ulps
QUAT_ATOL = 8 * np.finfo(float).eps
RATE_ATOL = 1e-13


def per_sample_waypoint_reference(waypoints, quats, dt):
    """waypoint_trajectory's poses and twists, one sample at a time: the
    segment looked up and its slerp rate formed again for every sample."""
    ts, pos, vel = cubic_spline_position(waypoints, dt)
    q_times = np.asarray([t for t, _ in quats], dtype=float)
    q_vals = [np.asarray(q, dtype=float) for _, q in quats]
    poses = []
    twists = np.zeros((len(ts), 6))
    for i, t in enumerate(ts):
        seg = int(np.clip(np.searchsorted(q_times, t, side="right") - 1, 0, len(q_vals) - 2))
        span = q_times[seg + 1] - q_times[seg]
        s = float(np.clip((t - q_times[seg]) / span, 0.0, 1.0))
        poses.append(Pose(scalar_slerp(q_vals[seg], q_vals[seg + 1], s), pos[i]))
        twists[i, :3] = vel[i]
        twists[i, 3:] = scalar_slerp_rotvec(q_vals[seg], q_vals[seg + 1]) / span
    twists[0, 3:] = 0.0
    twists[-1, 3:] = 0.0
    return poses, twists


def assert_matches_reference(traj, poses, twists):
    """traj's translations and linear twists equal to the bit, its
    quaternions and angular twists to the round-off tolerances above."""
    assert traj.n_samples == len(poses)
    np.testing.assert_allclose(traj.poses.quaternion, [p.quaternion for p in poses], rtol=0,
                               atol=QUAT_ATOL)
    assert np.array_equal(traj.poses.translation, [p.translation for p in poses])
    assert np.array_equal(traj.twists[:, :3], twists[:, :3])
    np.testing.assert_allclose(traj.twists[:, 3:], twists[:, 3:], rtol=0, atol=RATE_ATOL)


def unit(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


@pytest.mark.parametrize("quats", [
    [(0.0, unit([0.3, 0.5, -0.2, 0.8])), (1.5, unit([0.3, 0.5, -0.2, 0.8]))],
    [(0.0, unit([1.0, 0.0, 0.0, 0.0])), (0.37, unit([0.9, 0.1, -0.3, 0.2])),
     (1.0, unit([-0.2, 0.7, 0.1, 0.6])), (1.5, unit([0.5, -0.5, 0.5, 0.5]))],
], ids=["one-segment", "three-segments"])
def test_waypoint_trajectory_matches_per_sample_reference(quats):
    waypoints = [(0.0, (0.4, 0.0, 0.3)), (0.5, (0.4, 0.0, 0.5)),
                 (1.0, (0.4, 0.35, 0.5)), (1.5, (0.4, 0.35, 0.3))]
    traj = waypoint_trajectory(waypoints, quats, 1e-3)
    poses, twists = per_sample_waypoint_reference(waypoints, quats, 1e-3)
    assert traj.n_samples == 1501
    assert_matches_reference(traj, poses, twists)


@pytest.mark.parametrize("duration", [4.0, 0.011], ids=["scenario", "profile-past-one"])
def test_singularity_trajectory_matches_per_sample_reference(desk_model_large, duration):
    # the move between two poses, sample by sample with the scalar slerp; at
    # 0.011 s the ease's last value rounds to just past 1, where the scalar
    # slerp extrapolates and the array slerp holds the end
    traj = scenario_trajectory("singularity_pass", desk_model_large, 1e-3, duration=duration)
    start = forward_kinematics(desk_model_large, SINGULARITY_START_CONFIG)
    end = forward_kinematics(desk_model_large, SINGULARITY_END_CONFIG)
    _, s_prof, sd_prof = _smooth_profile(duration, 1e-3)
    assert (s_prof[-1] > 1.0) == (duration == 0.011)
    delta = end.translation - start.translation
    rotvec = scalar_slerp_rotvec(start.quaternion, end.quaternion)
    poses = [Pose(scalar_slerp(start.quaternion, end.quaternion, float(s)),
                  start.translation + s * delta) for s in s_prof]
    twists = np.array([np.concatenate([sd * delta, sd * rotvec]) for sd in sd_prof])
    assert_matches_reference(traj, poses, twists)


def test_slerp_of_an_array_of_fractions_is_its_scalar_slerps(rng):
    qa, qb = unit(rng.standard_normal(4)), unit(rng.standard_normal(4))
    fractions = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 20), [1.0]])
    got = quaternion_interp(qa, qb, fractions)
    assert got.shape == (22, 4)
    assert np.array_equal(got, [quaternion_interp(qa, qb, s) for s in fractions.tolist()])


def test_waypoint_trajectory_needs_two_keyframes():
    with pytest.raises(ValueError, match="two orientation keyframes"):
        waypoint_trajectory([(0.0, (0, 0, 0)), (1.0, (0, 0, 1))], [(0.0, np.array([1.0, 0, 0, 0]))], 0.1)


def test_singularity_scenario_endpoints(desk_model_large):
    traj = scenario_trajectory("singularity_pass", desk_model_large, 1e-3)
    assert traj.duration == pytest.approx(4.0)
    start = forward_kinematics(desk_model_large, SINGULARITY_START_CONFIG)
    end = forward_kinematics(desk_model_large, SINGULARITY_END_CONFIG)
    np.testing.assert_allclose(traj.poses.translation[0], start.translation, atol=1e-12)
    np.testing.assert_allclose(traj.poses.quaternion[0], start.quaternion, atol=1e-12)
    np.testing.assert_allclose(traj.poses.translation[-1], end.translation, atol=1e-9)
    np.testing.assert_allclose(traj.poses.quaternion[-1], end.quaternion, atol=1e-9)


def test_scenario_first_sample_matches_initial_config(desk_model):
    traj = scenario_trajectory("payload_pick_place", desk_model, 1e-3)
    q0 = scenario_initial_config("payload_pick_place", desk_model)
    pose0 = forward_kinematics(desk_model, q0)
    np.testing.assert_allclose(traj.poses.translation[0], pose0.translation, atol=1e-12)
    np.testing.assert_allclose(traj.poses.quaternion[0], pose0.quaternion, atol=1e-12)


def test_unknown_scenario(desk_model):
    with pytest.raises(KeyError):
        scenario_trajectory("nope", desk_model, 1e-3)


def test_all_samples_unit_canonical(desk_model):
    traj = scenario_trajectory("payload_pick_place", desk_model, 1e-2)
    assert np.all(np.abs(np.linalg.norm(traj.poses.quaternion, axis=1) - 1.0) <= 1e-9)
    assert np.all(traj.poses.quaternion[:, 0] >= 0)


def test_time_grid_alignment(desk_model):
    traj = scenario_trajectory("singularity_pass", desk_model, 1e-3)
    assert traj.n_samples == 4001
    assert traj.duration == pytest.approx(4.0)


@pytest.mark.parametrize("start", [0, 5, 190, 198, 200, 205], ids=lambda s: f"start-{s}")
def test_window_is_the_per_sample_reads(desk_model, start):
    # targets and twists both pad with the last sample, here a moving one;
    # a window short of the end is a read-only view of the trajectory's arrays
    traj = scenario_trajectory("circle_2dof", desk_model, 1e-2)
    assert traj.twists[-1].any()
    last = traj.n_samples - 1
    rot_t, pos_t, twists, includes_end = traj.window(start, 10)
    assert includes_end == (start + 10 >= last)
    assert rot_t.shape == (11, 3, 3) and pos_t.shape == (11, 3) and twists.shape == (11, 6)
    for i in range(11):
        k = min(start + i, last)
        single = Pose(traj.poses.quaternion[k], traj.poses.translation[k])
        assert np.array_equal(rot_t[i], single.rotation_matrix)
        assert np.array_equal(pos_t[i], single.translation)
        assert np.array_equal(twists[i], traj.twists[k])
    if not includes_end:
        for arr in (rot_t, pos_t, twists):
            assert not arr.flags.writeable and arr.base is not None


def test_trajectory_without_twists_holds_zeros(desk_model):
    pose = forward_kinematics(desk_model, np.zeros(desk_model.n))
    traj = TaskTrajectory(dt=1e-3, poses=(pose,) * 4)
    assert traj.twists.shape == (4, 6)
    assert not traj.twists.any()


@pytest.mark.parametrize("tasks", [(), ("position",), (default_task_hierarchy()[0], "orientation")],
                         ids=["empty", "str", "mixed"])
def test_tasks_must_be_task_specs(desk_model, tasks):
    pose = forward_kinematics(desk_model, np.zeros(desk_model.n))
    with pytest.raises(ValueError, match="TaskSpec"):
        TaskTrajectory(dt=1e-3, poses=(pose,), tasks=tasks)


def test_csv_export(tmp_path, desk_model):
    traj = scenario_trajectory("payload_pick_place", desk_model, 1e-2)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
    assert len(rows) == traj.n_samples
    vals = np.array(rows, dtype=float)
    np.testing.assert_allclose(vals[:, 0], traj.dt * np.arange(traj.n_samples))
    np.testing.assert_allclose(vals[:, 1:4], traj.poses.translation, atol=1e-15)
    np.testing.assert_allclose(vals[:, 4:], traj.poses.quaternion, atol=1e-15)


IDENTITY_POSE = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

NON_FINITE = {
    "quaternion-nan": lambda: Pose(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(3)),
    "quaternion-inf": lambda: Pose(np.array([np.inf, 0.0, 0.0, 0.0]), np.zeros(3)),
    "translation-nan": lambda: Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0])),
    "translation-inf": lambda: Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, np.inf])),
    "dt-nan": lambda: TaskTrajectory(dt=np.nan, poses=(IDENTITY_POSE,)),
    "dt-inf": lambda: TaskTrajectory(dt=np.inf, poses=(IDENTITY_POSE,)),
    "twists-nan": lambda: TaskTrajectory(dt=1e-3, poses=(IDENTITY_POSE,) * 2,
                                         twists=[[0.0] * 6, [np.nan] + [0.0] * 5]),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_poses_and_trajectories_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_trajectory_from_a_sequence_is_the_trajectory_from_its_stack(desk_model, rng):
    # a sequence of single poses is stacked once; the stack is used as given
    stack = scenario_trajectory("payload_pick_place", desk_model, 1e-2).poses
    singles = [Pose(q, t) for q, t in zip(stack.quaternion, stack.translation)]
    twists = rng.standard_normal((len(singles), 6))
    from_singles = TaskTrajectory(dt=1e-2, poses=singles, twists=twists)
    from_stack = TaskTrajectory(dt=1e-2, poses=stack, twists=twists)
    assert from_stack.poses is stack
    for name in ("quaternion", "translation", "rotation_matrix"):
        assert np.array_equal(getattr(from_singles.poses, name), getattr(stack, name))
    assert np.array_equal(from_singles.twists, from_stack.twists)
    assert not from_stack.twists.flags.writeable and twists.flags.writeable
    assert from_singles.n_samples == from_stack.n_samples == len(singles)


@pytest.mark.parametrize("poses", [(), [], IDENTITY_POSE,
                                   Pose(np.zeros((0, 4)), np.zeros((0, 3)))],
                         ids=["empty-tuple", "empty-list", "single-pose", "empty-stack"])
def test_a_trajectory_needs_at_least_one_sample(poses):
    with pytest.raises(ValueError, match="at least one sample"):
        TaskTrajectory(dt=1e-3, poses=poses)


def per_sample_circle(model, dt, total=2.0):
    """circle_2dof's poses and twists, one sample at a time in Python floats:
    the oracle of its array form."""
    center = forward_kinematics(model, scenario_initial_config("circle_2dof", model))
    radius, count = 0.08, round(total / dt)
    omega = 2 * math.pi / total
    poses, twists = [], np.zeros((count + 1, 6))
    for k in range(count + 1):
        ang = omega * k * dt
        offset = radius * np.array([math.cos(ang) - 1.0, math.sin(ang), 0.0])
        poses.append(Pose(center.quaternion, center.translation + offset))
        twists[k, :3] = radius * omega * np.array([-math.sin(ang), math.cos(ang), 0.0])
    return poses, twists


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_circle_matches_its_per_sample_loop_bit_for_bit(planar_2dof, desk_model, dt):
    for model in (planar_2dof, desk_model):
        traj = scenario_trajectory("circle_2dof", model, dt)
        poses, twists = per_sample_circle(model, dt)
        assert traj.poses.quaternion.tobytes() == np.array([p.quaternion for p in poses]).tobytes()
        assert traj.poses.translation.tobytes() == np.array([p.translation for p in poses]).tobytes()
        assert traj.twists.tobytes() == twists.tobytes()


def test_circle_scenario(planar_2dof):
    traj = scenario_trajectory("circle_2dof", planar_2dof, 1e-2)
    q0 = scenario_initial_config("circle_2dof", planar_2dof)
    center = forward_kinematics(planar_2dof, q0).translation
    np.testing.assert_allclose(traj.poses.translation[0], center, atol=1e-12)
    radii = np.linalg.norm(traj.poses.translation - (center - [0.08, 0, 0]), axis=1)
    np.testing.assert_allclose(radii, 0.08, atol=1e-12)
