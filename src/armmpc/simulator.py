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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import RigidBodyState, integrate_semi_implicit
from .kinematics import forward_kinematics, task_error
from .mpc_dynamic import DynamicMpc, DynamicMpcConfig
from .mpc_kinematic import KinematicMpc, KinematicMpcConfig
from .nominal import default_posture, ik_rollout, osc_torque
from .robot_model import PayloadSpec, RobotModel, attach_payload
from .trajgen import TaskTrajectory, scenario_initial_config, scenario_trajectory

CONTROLLERS = ("osc", "kin_mpc", "dyn_mpc")


@dataclass
class PlantState:
    t: float
    q: np.ndarray
    qd: np.ndarray
    last_u: np.ndarray
    saturation_count: int = 0
    degraded_ticks: int = 0


def make_plant_state(model: RobotModel, q0, qd0=None) -> PlantState:
    q0 = model.check_q(q0)
    qd0 = np.zeros(model.n) if qd0 is None else model.check_q(qd0, "qd0")
    return PlantState(t=0.0, q=q0.copy(), qd=qd0.copy(), last_u=np.zeros(model.n))


def step_torque_plant(model: RobotModel, state: PlantState, u, dt: float,
                      substeps: int = 1) -> PlantState:
    """Clamp the torque to the model limits and integrate one tick."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = model.check_q(u, "u")
    if not np.all(np.isfinite(u)):
        raise ValueError("torque command has non-finite entries")
    u_max = model.limits.u_max
    u_applied = np.clip(u, -u_max, u_max)
    saturated = bool(np.any(u_applied != u))
    q, qd = integrate_semi_implicit(model, state.q, state.qd, u_applied, dt, substeps)
    return PlantState(
        t=state.t + dt,
        q=q,
        qd=qd,
        last_u=u_applied,
        saturation_count=state.saturation_count + int(saturated),
        degraded_ticks=state.degraded_ticks,
    )


@dataclass(frozen=True)
class PositionLoopGains:
    """Acceleration-unit PD gains: the torque is inertia-scaled, so kp/kd
    set the closed-loop stiffness per joint regardless of link masses
    (omega_n = sqrt(kp), critically damped at kd = 2 sqrt(kp))."""

    kp: float = 400.0
    kd: float = 40.0


def step_position_plant(model: RobotModel, state: PlantState, q_cmd, dt: float,
                        gains: PositionLoopGains = PositionLoopGains(),
                        substeps: int = 1) -> PlantState:
    """Inner PD + gravity compensation tracking q_cmd, then the torque plant.

    Stands in for a vendor joint controller: inertia-scaled PD acceleration
    plus exact gravity compensation, clamped by the torque plant.
    """
    q_cmd = model.check_q(q_cmd, "q_cmd")
    acc = gains.kp * (q_cmd - state.q) - gains.kd * state.qd
    st = RigidBodyState(model, state.q, np.zeros(model.n))
    u = st.mass @ acc + st.bias
    return step_torque_plant(model, state, u, dt, substeps=substeps)


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
    substeps: int = 1  # plant integration substeps per control tick


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


def run_scenario(scenario, controller: str, model: RobotModel,
                 cfg: ScenarioConfig | None = None) -> RunResult:
    """Tick the chosen controller against the matching plant over a scenario.

    scenario is a name from trajgen.SCENARIOS or a (TaskTrajectory, q0) pair;
    osc/dyn_mpc run on the torque plant, kin_mpc on the position plant.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}; choose from {CONTROLLERS}")
    cfg = cfg or default_scenario_config(scenario if isinstance(scenario, str) else "", controller)

    if isinstance(scenario, str):
        name = scenario
        traj = scenario_trajectory(name, model, cfg.dt, duration=cfg.duration)
        q0 = scenario_initial_config(name, model)
    else:
        traj, q0 = scenario
        name = "custom"
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

    kin = dyn = None
    if controller == "kin_mpc":
        kin = KinematicMpc(model, KinematicMpcConfig(
            horizon=cfg.horizon, dt=cfg.dt, task_weight=cfg.task_weight,
            damping_weight=cfg.damping_weight, accel_weight=cfg.accel_weight,
            terminal_pos_tol=cfg.terminal_pos_tol, terminal_vel_tol=cfg.terminal_vel_tol,
            svd_threshold=cfg.svd_threshold))
    elif controller == "dyn_mpc":
        dyn = DynamicMpc(model, DynamicMpcConfig(
            horizon=cfg.horizon, dt=cfg.dt, task_weight=cfg.task_weight,
            damping_weight=cfg.damping_weight, input_weight=cfg.input_weight,
            terminal_state_tol=cfg.terminal_state_tol, svd_threshold=cfg.svd_threshold),
            posture=posture)

    if ticks == 0:
        empty = np.empty(0)
        metrics = RunMetrics(empty, empty, empty, 0.0, 0, 0, 0)
        return RunResult(metrics, empty, np.empty((0, n)), np.empty((0, n)), np.empty((0, n)),
                         np.empty((0, n)), empty, empty, np.empty(0, dtype=int),
                         controller, name)

    for tick in range(ticks):
        target = traj.poses[tick]
        err = task_error(target, forward_kinematics(model, state.q)).value
        t_log[tick] = state.t
        q_log[tick] = state.q
        qd_log[tick] = state.qd
        pos_err[tick] = np.linalg.norm(err[:3])
        ori_err[tick] = np.linalg.norm(err[3:])

        sat_before = state.saturation_count
        if controller == "osc":
            window, _ = traj.window(tick, 0)
            pose, twist = window[0]
            twists = [twist] * len(traj.tasks) if twist is not None else None
            targets = [pose] * len(traj.tasks)
            t0 = time.perf_counter()
            u = osc_torque(model, state.q, state.qd, traj.tasks, targets,
                           cfg.svd_threshold, posture=posture, twists=twists)
            solve_t[tick] = time.perf_counter() - t0
            cmd_log[tick] = u
            state = step_torque_plant(model, state, u, cfg.dt, substeps=cfg.substeps)
        elif controller == "dyn_mpc":
            x = np.concatenate([state.q, state.qd])
            res = dyn.step(x, traj, tick)
            solve_t[tick] = res.solve_time
            cmd_log[tick] = res.u_cmd
            if res.degraded:
                flags[tick] |= 1
            state = step_torque_plant(model, state, res.u_cmd, cfg.dt,
                                      substeps=cfg.substeps)
        else:
            res = kin.step(state.q, traj, tick)
            solve_t[tick] = res.solve_time
            cmd_log[tick] = res.q_cmd
            if res.degraded:
                flags[tick] |= 1
            state = step_position_plant(model, state, res.q_cmd, cfg.dt,
                                        gains=cfg.position_gains, substeps=cfg.substeps)
        u_log[tick] = state.last_u
        if state.saturation_count > sat_before:
            flags[tick] |= 2

    if controller == "kin_mpc":
        qdd = np.diff(cmd_log, 2, axis=0) / cfg.dt**2 if ticks >= 3 else np.zeros((0, n))
    else:
        qdd = np.diff(qd_log, axis=0) / cfg.dt if ticks >= 2 else np.zeros((0, n))
    limit_violations = int(
        np.sum(np.abs(qd_log) > model.limits.v_max[None, :] + 1e-8)
        + np.sum(q_log > model.limits.q_max[None, :] + 1e-8)
        + np.sum(q_log < model.limits.q_min[None, :] - 1e-8)
    )
    metrics = RunMetrics(
        accumulated_pos_err=np.cumsum(pos_err),
        accumulated_ori_err=np.cumsum(ori_err),
        per_tick_solve_time=solve_t,
        max_abs_qdd=float(np.abs(qdd).max()) if qdd.size else 0.0,
        limit_violations=limit_violations,
        saturated_ticks=state.saturation_count,
        degraded_ticks=state.degraded_ticks + (kin.degraded_ticks if kin else 0)
        + (dyn.degraded_ticks if dyn else 0),
    )
    return RunResult(metrics, t_log, q_log, qd_log, u_log, cmd_log, pos_err, ori_err,
                     flags, controller, name)


def ik_baseline_sequence(model: RobotModel, traj: TaskTrajectory, q0,
                         svd_threshold: float = 1e-2):
    """Open-loop truncated-SVD IK rollout over the whole trajectory.

    The raw nominal the MPC is compared against: returns (q_seq, qd_cmd_seq).
    """
    window, _ = traj.window(0, traj.n_samples - 1)
    roll = ik_rollout(model, q0, window, traj.dt, svd_threshold, traj.tasks)
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
    lines = [
        f"scenario: {result.scenario}",
        f"controller: {result.controller}",
        f"ticks: {result.t.shape[0]}",
    ]
    if result.t.shape[0]:
        pos_final, ori_final = m.final_errors()
        lines += [
            f"accumulated_pos_err_final: {_fmt(pos_final)}",
            f"accumulated_ori_err_final: {_fmt(ori_final)}",
            f"max_abs_qdd: {_fmt(m.max_abs_qdd)}",
            f"limit_violations: {m.limit_violations}",
            f"saturated_ticks: {m.saturated_ticks}",
            f"degraded_ticks: {m.degraded_ticks}",
        ]
    Path(path).write_text("\n".join(lines) + "\n")
