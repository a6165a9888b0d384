"""Closed-loop plant simulation, scenario execution, and run metrics.

Torque-controlled plants integrate clamped torques with semi-implicit Euler;
position-controlled plants wrap the same integrator in a stiff joint-space
PD + gravity compensation loop standing in for a vendor controller. Scenario
runs tick a controller at 1/dt against the plant and record everything
needed for the comparisons: accumulated task-error series, solve times,
command logs, and saturation/degradation counters.

Run logs split into two CSVs: `*_log.csv` holds the deterministic per-tick
signals (bit-identical across reruns of the same config), `*_timing.csv`
holds wall-clock solve times.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import RigidBodyState
from .horizon import HorizonConfig
from .kinematics import ChainState, pose_error_raw
from .mpc_dynamic import DynamicMpc, DynamicMpcConfig
from .mpc_kinematic import KinematicMpc, KinematicMpcConfig
from .nominal import default_posture, ik_rollout, osc_torque
from .robot_model import PayloadSpec, RobotModel, attach_payload, require_number
from .trajgen import TaskTrajectory, scenario_initial_config, scenario_trajectory

CONTROLLERS = ("osc", "kin_mpc", "dyn_mpc")


@dataclass
class PlantState:
    """The plant at time t: its chain state at (q, qd), which the error log
    and the next plant step both read, the torque applied last and the
    number of steps whose torque was clamped."""

    t: float
    chain: RigidBodyState
    last_u: np.ndarray
    saturation_count: int = 0

    @property
    def q(self) -> np.ndarray:
        return self.chain.q

    @property
    def qd(self) -> np.ndarray:
        return self.chain.qd


def make_plant_state(model: RobotModel, q0, qd0=None) -> PlantState:
    """The plant at rest at q0, or moving at qd0; both are copied."""
    qd0 = None if qd0 is None else np.array(qd0, dtype=float)
    return PlantState(t=0.0, chain=RigidBodyState(model, np.array(q0, dtype=float), qd0),
                      last_u=np.zeros(model.n))


def step_torque_plant(state: PlantState, u, dt: float) -> PlantState:
    """Clamp the torque to the limits of the plant's model and integrate one
    tick at its chain state; building the next state's chain is the step's
    one joint pass."""
    model = state.chain.model
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    u = model.check_q(u, "u")
    if not np.isfinite(u).all():
        raise ValueError("torque command has non-finite entries")
    u_max = model.limits.u_max
    u_applied = np.clip(u, -u_max, u_max)
    return PlantState(
        t=state.t + dt,
        chain=state.chain.semi_implicit_step(u_applied, dt)[0],
        last_u=u_applied,
        saturation_count=state.saturation_count + int(np.any(u_applied != u)),
    )


@dataclass(frozen=True)
class PositionLoopGains:
    """Acceleration-unit PD gains: the torque is inertia-scaled, so kp/kd
    set the closed-loop stiffness per joint regardless of link masses
    (omega_n = sqrt(kp), critically damped at kd = 2 sqrt(kp))."""

    kp: float = 400.0
    kd: float = 40.0

    def __post_init__(self):
        for name, gain in (("kp", self.kp), ("kd", self.kd)):
            require_number(gain, name)
            if not (math.isfinite(gain) and gain >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {gain}")


def step_position_plant(state: PlantState, q_cmd, dt: float,
                        gains: PositionLoopGains = PositionLoopGains()) -> PlantState:
    """Inner PD + gravity compensation tracking q_cmd, then the torque plant.

    Stands in for a vendor joint controller: inertia-scaled PD acceleration
    plus exact gravity compensation, clamped by the torque plant. The
    plant's chain state serves the PD torque and the integration step.
    """
    st = state.chain
    q_cmd = st.model.check_q(q_cmd, "q_cmd")
    acc = gains.kp * (q_cmd - st.q) - gains.kd * st.qd
    return step_torque_plant(state, st.mass @ acc + st.gravity, dt)


@dataclass
class RunMetrics:
    accumulated_pos_err: np.ndarray
    accumulated_ori_err: np.ndarray
    per_tick_solve_time: np.ndarray
    max_abs_qdd: float
    limit_violations: int
    saturated_ticks: int
    degraded_ticks: int

    def final_errors(self) -> tuple[float, float]:
        """The accumulated errors at the last tick, (0.0, 0.0) for a run of no ticks."""
        if not self.accumulated_pos_err.size:
            return 0.0, 0.0
        return float(self.accumulated_pos_err[-1]), float(self.accumulated_ori_err[-1])


@dataclass
class RunResult:
    metrics: RunMetrics
    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    u: np.ndarray
    cmd: np.ndarray  # q_cmd for position control, torque for torque control
    pos_err: np.ndarray
    ori_err: np.ndarray
    flags: np.ndarray  # per tick: 1 = degraded, 2 = saturated, 3 = both
    controller: str
    scenario: str


@dataclass
class ScenarioConfig:
    dt: float = 1e-3
    horizon: int = 10
    svd_threshold: float = 1e-2
    task_weight: float = 10.0
    damping_weight: float = 1e-4
    accel_weight: float = 0.0
    input_weight: float = 0.0
    terminal_pos_tol: float = 0.02
    terminal_vel_tol: float = 0.2
    terminal_state_tol: float = 0.05
    payload: PayloadSpec | None = None
    position_gains: PositionLoopGains = field(default_factory=PositionLoopGains)
    duration: float | None = None
    max_ticks: int | None = None  # truncate the run (benchmarks)


def default_scenario_config(scenario: str, controller: str) -> ScenarioConfig:
    """Reference weights per scenario: payload runs use the torque-MPC
    weights (task 10, damping 1e-4) on a 1 s move that drives the wrist
    torques into saturation; the singularity run uses the stiff kinematic
    weights (task 2000, damping 0.01) plus a small acceleration cost for
    command smoothness."""
    if scenario == "payload_pick_place":
        return ScenarioConfig(
            task_weight=10.0,
            damping_weight=1e-4,
            duration=1.0,
            payload=PayloadSpec(mass=12.0, com_offset=np.array([0.0, 0.0, 0.1])),
        )
    if scenario == "singularity_pass":
        return ScenarioConfig(
            task_weight=2000.0,
            damping_weight=0.01,
            accel_weight=1e-4,
            terminal_pos_tol=0.1,
            terminal_vel_tol=1.0,
            position_gains=PositionLoopGains(kp=200.0, kd=28.0),
        )
    return ScenarioConfig(task_weight=100.0, damping_weight=1e-3)


def controller_config(cfg: ScenarioConfig, controller: str) -> HorizonConfig:
    """The controller's own settings, taken from cfg by field name and checked.

    The MPCs get their config classes; osc, which reads dt and svd_threshold,
    is checked through the shared HorizonConfig. Raises ValueError for a
    value out of range.
    """
    kind = {"kin_mpc": KinematicMpcConfig, "dyn_mpc": DynamicMpcConfig}.get(
        controller, HorizonConfig)
    return kind(**{f.name: getattr(cfg, f.name) for f in fields(kind)})


def run_scenario(scenario, controller: str, model: RobotModel,
                 cfg: ScenarioConfig | None = None) -> RunResult:
    """Tick the chosen controller against the matching plant over a scenario.

    scenario is a name from trajgen.SCENARIOS or a (TaskTrajectory, q0) pair,
    the trajectory sampled at cfg.dt; osc/dyn_mpc run on the torque plant,
    kin_mpc on the position plant.
    cfg.max_ticks, when set, is a nonnegative integer (0: no ticks).
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}; choose from {CONTROLLERS}")
    cfg = cfg or default_scenario_config(scenario if isinstance(scenario, str) else "", controller)
    if cfg.max_ticks is not None and (isinstance(cfg.max_ticks, bool) or not (
            isinstance(cfg.max_ticks, (int, np.integer)) and cfg.max_ticks >= 0)):
        raise ValueError(f"max_ticks must be a nonnegative integer, got {cfg.max_ticks!r}")
    ctl_cfg = controller_config(cfg, controller)

    if isinstance(scenario, str):
        name = scenario
        traj = scenario_trajectory(name, model, cfg.dt, duration=cfg.duration)
        q0 = scenario_initial_config(name, model)
    else:
        traj, q0 = scenario
        name = "custom"
        if not math.isclose(traj.dt, cfg.dt, rel_tol=1e-9):  # one sample per tick
            raise ValueError(f"trajectory is sampled at dt = {traj.dt}, the run ticks at {cfg.dt}")
    if cfg.payload is not None:
        model = attach_payload(model, cfg.payload)

    n = model.n
    ticks = traj.n_samples
    if cfg.max_ticks is not None:
        ticks = min(ticks, cfg.max_ticks)
    posture = default_posture(q0)
    state = make_plant_state(model, q0)

    t_log = np.empty(ticks)
    q_log = np.empty((ticks, n))
    qd_log = np.empty((ticks, n))
    u_log = np.zeros((ticks, n))
    cmd_log = np.zeros((ticks, n))
    pos_err = np.empty(ticks)
    ori_err = np.empty(ticks)
    solve_t = np.zeros(ticks)
    flags = np.zeros(ticks, dtype=int)

    if controller == "kin_mpc":
        mpc = KinematicMpc(model, ctl_cfg)
    elif controller == "dyn_mpc":
        mpc = DynamicMpc(model, ctl_cfg, posture=posture)

    rotations, positions = traj.poses.rotation_matrix, traj.poses.translation
    for tick in range(ticks):
        chain = state.chain
        err = pose_error_raw(rotations[tick], positions[tick], chain.ee_rot, chain.ee_pos)
        t_log[tick] = state.t
        q_log[tick] = state.q
        qd_log[tick] = state.qd
        pos_err[tick] = np.linalg.norm(err[:3])
        ori_err[tick] = np.linalg.norm(err[3:])

        sat_before = state.saturation_count
        t0 = time.perf_counter()
        if controller == "osc":
            cmd = osc_torque(chain, traj.tasks, rotations[tick], positions[tick],
                             cfg.svd_threshold, posture=posture, twist=traj.twists[tick])
            degraded = False
        else:
            res = mpc.step(chain, traj, tick)
            cmd = res.q_cmd if controller == "kin_mpc" else res.u_cmd
            degraded = res.degraded
        solve_t[tick] = time.perf_counter() - t0
        cmd_log[tick] = cmd
        if controller == "kin_mpc":
            state = step_position_plant(state, cmd, cfg.dt, gains=cfg.position_gains)
        else:
            state = step_torque_plant(state, cmd, cfg.dt)
        u_log[tick] = state.last_u
        flags[tick] = degraded | 2 * (state.saturation_count > sat_before)

    if controller == "kin_mpc":
        qdd = np.diff(cmd_log, 2, axis=0) / cfg.dt**2
    else:
        qdd = np.diff(qd_log, axis=0) / cfg.dt
    limit_violations = int(
        np.sum(np.abs(qd_log) > model.limits.v_max[None, :] + 1e-8)
        + np.sum(q_log > model.limits.q_max[None, :] + 1e-8)
        + np.sum(q_log < model.limits.q_min[None, :] - 1e-8)
    )
    metrics = RunMetrics(
        accumulated_pos_err=np.cumsum(pos_err),
        accumulated_ori_err=np.cumsum(ori_err),
        per_tick_solve_time=solve_t,
        max_abs_qdd=float(np.abs(qdd).max(initial=0.0)),
        limit_violations=limit_violations,
        saturated_ticks=state.saturation_count,
        degraded_ticks=int(np.count_nonzero(flags & 1)),
    )
    return RunResult(metrics, t_log, q_log, qd_log, u_log, cmd_log, pos_err, ori_err,
                     flags, controller, name)


def ik_baseline_sequence(model: RobotModel, traj: TaskTrajectory, q0,
                         svd_threshold: float = 1e-2):
    """Open-loop truncated-SVD IK rollout over the whole trajectory.

    The raw nominal the MPC is compared against: returns (q_seq, qd_cmd_seq).
    """
    roll = ik_rollout(ChainState(model, q0), traj.poses.rotation_matrix, traj.poses.translation,
                      traj.dt, svd_threshold, traj.tasks, twists=traj.twists)
    return roll.q_hat, roll.qd_hat


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_log_csv(result: RunResult, path) -> None:
    """Deterministic per-tick log (no wall-clock columns)."""
    n = result.q.shape[1] if result.q.size else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            ["t"]
            + [f"q{i}" for i in range(n)]
            + [f"qd{i}" for i in range(n)]
            + [f"u{i}" for i in range(n)]
            + [f"cmd{i}" for i in range(n)]
            + ["pos_err", "ori_err", "flags"]
        )
        writer.writerow(header)
        for k in range(result.t.shape[0]):
            row = ([_fmt(result.t[k])] + [_fmt(v) for v in result.q[k]]
                   + [_fmt(v) for v in result.qd[k]] + [_fmt(v) for v in result.u[k]]
                   + [_fmt(v) for v in result.cmd[k]]
                   + [_fmt(result.pos_err[k]), _fmt(result.ori_err[k]), str(int(result.flags[k]))])
            writer.writerow(row)


def write_timing_csv(result: RunResult, path) -> None:
    """Wall-clock solve times, one row per tick (not deterministic)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "solve_time_s"])
        for k in range(result.t.shape[0]):
            writer.writerow([_fmt(result.t[k]), _fmt(result.metrics.per_tick_solve_time[k])])


def write_metrics_report(result: RunResult, path) -> None:
    """Human-readable summary; deterministic fields only."""
    m = result.metrics
    pos_final, ori_final = m.final_errors()
    lines = [
        f"scenario: {result.scenario}",
        f"controller: {result.controller}",
        f"ticks: {result.t.shape[0]}",
        f"accumulated_pos_err_final: {_fmt(pos_final)}",
        f"accumulated_ori_err_final: {_fmt(ori_final)}",
        f"max_abs_qdd: {_fmt(m.max_abs_qdd)}",
        f"limit_violations: {m.limit_violations}",
        f"saturated_ticks: {m.saturated_ticks}",
        f"degraded_ticks: {m.degraded_ticks}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
