"""Task-trajectory generation: clamped cubic splines in position, and in
orientation slerp (Shoemake, 1985) by scipy's Slerp over all samples at once.

Trajectories are sampled on the controller's time grid, one Pose stack and
one (N, 6) twist array whose rows a window hands out, never resampled. The
bundled scenarios reproduce the evaluation setups: a pick-and-place payload
move, a wrist-singularity crossing, and a small planar circle for benchmarks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial.transform import Slerp

from .kinematics import Pose, forward_kinematics, quat_from_rotation, rotation_from_quat
from .nominal import POSITION, TaskSpec, default_task_hierarchy
from .robot_model import RobotModel, _frozen, require_number

SCENARIOS = ("payload_pick_place", "singularity_pass", "circle_2dof")
SCENARIO_DURATIONS = {"payload_pick_place": 3.0, "singularity_pass": 4.0, "circle_2dof": 2.0}  # s


@dataclass(frozen=True, eq=False)
class TaskTrajectory:
    """Evenly sampled pose targets, one Pose stack (a sequence of single
    Poses is stacked once), and their desired twists, every controller's
    feedforward (zeros if built without); all arrays are read-only."""

    dt: float
    poses: Pose
    twists: np.ndarray | None = None  # (count, 6): [linear; angular]
    tasks: tuple[TaskSpec, ...] = field(default_factory=default_task_hierarchy)

    def __post_init__(self):
        require_number(self.dt, "dt")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        poses = self.poses
        if not isinstance(poses, Pose):
            poses = Pose(np.array([p.quaternion for p in poses]).reshape(-1, 4),
                         np.array([p.translation for p in poses]).reshape(-1, 3))
        count = len(poses.quaternion) if poses.quaternion.ndim == 2 else 0
        if not count:
            raise ValueError("trajectory needs at least one sample, as a Pose stack")
        object.__setattr__(self, "poses", poses)
        tw = np.zeros((count, 6)) if self.twists is None else np.array(self.twists, dtype=float)
        if tw.shape != (count, 6):
            raise ValueError(f"twists must be ({count}, 6), got {tw.shape}")
        if not np.all(np.isfinite(tw)):
            raise ValueError("twists have non-finite entries")
        object.__setattr__(self, "twists", _frozen(tw))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks or not all(isinstance(t, TaskSpec) for t in self.tasks):
            raise ValueError("tasks must be a non-empty sequence of TaskSpec")

    @property
    def n_samples(self) -> int:
        return len(self.poses.quaternion)

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.dt

    def window(self, start: int, horizon: int):
        """Targets for steps start..start+horizon, padded with the final sample:
        (rotations, positions, twists, includes_end), horizon + 1 rows each of
        the stack's rotation matrices, positions and twists, views or, if the
        window reaches the end, gathers. A negative start or horizon is a
        ValueError: it names no tick."""
        if start < 0 or horizon < 0:
            raise ValueError(f"start and horizon must be >= 0, got {start} and {horizon}")
        last = self.n_samples - 1
        stop = start + horizon + 1
        rows = slice(start, stop) if stop <= last else np.minimum(np.arange(start, stop), last)
        return (self.poses.rotation_matrix[rows], self.poses.translation[rows], self.twists[rows],
                stop > last)


def step_count(span: float, dt: float) -> int:
    """The number of dt steps in span, a ValueError naming both unless span
    is a whole number of them (to 1e-9 of a step): an even sampling of the
    span would otherwise stop short of its end or shorten its last step."""
    steps = span / dt
    count = round(steps)
    if abs(steps - count) > 1e-9:
        raise ValueError(f"duration {span} s is not a whole number of steps dt = {dt} s")
    return count


def cubic_spline_position(waypoints, dt: float):
    """Clamped C2 cubic through (t, xyz) waypoints, sampled every dt; the
    waypoints must span a whole number of steps (see step_count).

    Endpoint velocities are zero (moves start and end at rest). Returns
    (times, positions (k, 3), velocities (k, 3)).
    """
    times = np.asarray([w[0] for w in waypoints], dtype=float)
    points = np.asarray([w[1] for w in waypoints], dtype=float).reshape(len(waypoints), 3)
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints")
    if np.any(np.diff(times) <= 0):
        raise ValueError("waypoint times must be strictly increasing")
    spline = CubicSpline(times, points, axis=0, bc_type="clamped")
    count = step_count(times[-1] - times[0], dt)
    ts = times[0] + dt * np.arange(count + 1)
    ts[-1] = min(ts[-1], times[-1])
    return ts, spline(ts), spline(ts, 1)


def quaternion_interp(q_start, q_end, s) -> np.ndarray:
    """Shortest-path slerp between unit quaternions at fraction s in [0, 1],
    a scalar (giving (4,)) or an array of fractions (giving (m, 4))."""
    return quat_from_rotation(Slerp([0.0, 1.0], rotation_from_quat([q_start, q_end]))(s))


def _smooth_profile(duration: float, dt: float):
    """Scalar 0 -> 1 ease with zero endpoint rates, on the dt grid."""
    ts, pos, vel = cubic_spline_position([(0.0, (0.0, 0.0, 0.0)), (duration, (1.0, 0.0, 0.0))], dt)
    return ts, pos[:, 0], vel[:, 0]


def pose_trajectory_between(start: Pose, end: Pose, duration: float, dt: float) -> TaskTrajectory:
    """Spline position + slerp orientation from start to end, at rest at both ends."""
    _, s_prof, sd_prof = _smooth_profile(duration, dt)
    delta = end.translation - start.translation
    qa, qb = start.quaternion, end.quaternion
    # the world-frame rotation vector from start to end along the slerp
    rotvec = (rotation_from_quat(qb) * rotation_from_quat(qa).inv()).as_rotvec()
    # the spline's end value may round to just past 1, outside the slerp's span
    quats = quaternion_interp(qa, qb, np.clip(s_prof, 0.0, 1.0))
    poses = Pose(quats, start.translation + s_prof[:, None] * delta)
    twists = sd_prof[:, None] * np.concatenate([delta, rotvec])
    return TaskTrajectory(dt=dt, poses=poses, twists=twists)


def waypoint_trajectory(waypoints, quats, dt: float) -> TaskTrajectory:
    """Spline through timed position waypoints with piecewise slerp orientation.

    waypoints: list of (t, xyz); quats: list of (t, quaternion) keyframes
    covering the same span.
    """
    if len(quats) < 2:
        raise ValueError("need at least two orientation keyframes")
    ts, pos, vel = cubic_spline_position(waypoints, dt)
    q_times = np.asarray([t for t, _ in quats], dtype=float)
    keys = rotation_from_quat([q for _, q in quats])
    # each segment's slerp turns at one constant rate; the samples outside the
    # keyframes' span hold its end orientations
    rates = (keys[1:] * keys[:-1].inv()).as_rotvec() / np.diff(q_times)[:, None]
    slerped = Slerp(q_times, keys)(np.clip(ts, q_times[0], q_times[-1]))
    poses = Pose(quat_from_rotation(slerped), pos)
    segs = np.clip(np.searchsorted(q_times, ts, side="right") - 1, 0, len(q_times) - 2)
    twists = np.hstack([vel, rates[segs]])
    # angular feedforward is the constant segment rate; zero it at the rest ends
    twists[[0, -1], 3:] = 0.0
    return TaskTrajectory(dt=dt, poses=poses, twists=twists)


SINGULARITY_START_CONFIG = np.array([0.0, 0.0, -math.pi / 2, 0.0, -math.pi / 2, math.pi / 2])
SINGULARITY_END_CONFIG = np.array([math.pi / 2, 0.0, -math.pi / 2, 0.0, math.pi / 4, math.pi / 2])
PAYLOAD_HOME_CONFIG = np.array([0.0, 0.5, -1.8, 0.0, -0.8, 0.0])


def scenario_initial_config(name: str, model: RobotModel) -> np.ndarray:
    if name == "singularity_pass":
        return SINGULARITY_START_CONFIG.copy()
    if name == "payload_pick_place":
        return PAYLOAD_HOME_CONFIG.copy()
    if name == "circle_2dof":
        out = np.zeros(model.n)
        out[:6] = [0.4, 0.7, -1.2, 0.0, -0.6, 0.0][:model.n]
        return out
    raise KeyError(f"unknown scenario {name!r}")


def scenario_trajectory(name: str, model: RobotModel, dt: float,
                        duration: float | None = None) -> TaskTrajectory:
    """Build one of the bundled scenario trajectories on the given model;
    duration, finite and > 0 and a whole number of dt steps (see step_count),
    defaults to the scenario's own."""
    if duration is not None and not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    total = duration or SCENARIO_DURATIONS.get(name)
    if name == "singularity_pass":
        start = forward_kinematics(model, SINGULARITY_START_CONFIG)
        end = forward_kinematics(model, SINGULARITY_END_CONFIG)
        return pose_trajectory_between(start, end, total, dt)
    if name == "payload_pick_place":
        seg = total / 3.0
        home = forward_kinematics(model, PAYLOAD_HOME_CONFIG)
        # home, lifted, carried across and set down
        points = np.cumsum([home.translation, [0, 0, 0.2], [0, 0.35, 0], [0, 0, -0.2]], axis=0)
        waypoints = list(zip([0.0, seg, 2 * seg, total], points))
        quats = [(0.0, home.quaternion), (total, home.quaternion)]
        return waypoint_trajectory(waypoints, quats, dt)
    if name == "circle_2dof":
        center_pose = forward_kinematics(model, scenario_initial_config(name, model))
        radius = 0.08
        omega = 2 * math.pi / total
        ang = omega * np.arange(step_count(total, dt) + 1) * dt
        cos, sin, zero = np.cos(ang), np.sin(ang), np.zeros_like(ang)
        poses = Pose(np.tile(center_pose.quaternion, (ang.size, 1)), center_pose.translation
                     + radius * np.stack([cos - 1.0, sin, zero], axis=1))
        twists = radius * omega * np.stack([-sin, cos, zero, zero, zero, zero], axis=1)
        tasks = (TaskSpec(priority=1, selector=POSITION, gain=20.0,
                          kp=np.full(3, 100.0), kd=np.full(3, 10.0)),)
        return TaskTrajectory(dt=dt, poses=poses, twists=twists, tasks=tasks)
    raise KeyError(f"unknown scenario {name!r}; choose from {SCENARIOS}")


def export_trajectory_csv(traj: TaskTrajectory, path) -> None:
    """Write t, px, py, pz, qw, qx, qy, qz rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "px", "py", "pz", "qw", "qx", "qy", "qz"])
        for k, (position, quat) in enumerate(zip(traj.poses.translation, traj.poses.quaternion)):
            row = [k * traj.dt, *position, *quat]
            writer.writerow([f"{x:.17g}" for x in row])
