"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines. The singularity and payload closed-loop runs are shared
between criteria through module-scoped fixtures.
"""

import filecmp
import time

import numpy as np
import pytest

from armmpc import load_bundled_model
from armmpc.checks import run_dynamics_derivative_check, run_identity_check, run_qp_check
from armmpc.cli import bench_horizon
from armmpc.dynamics import forward_dynamics
from armmpc.kinematics import forward_kinematics
from armmpc.mpc_dynamic import DynamicMpc, DynamicMpcConfig, linearize_stage
from armmpc.mpc_kinematic import KinematicMpc, KinematicMpcConfig
from armmpc.nominal import default_posture, default_task_hierarchy
from armmpc.simulator import (
    default_scenario_config,
    ik_baseline_sequence,
    run_scenario,
    write_log_csv,
    write_metrics_report,
)
from armmpc.trajgen import SINGULARITY_START_CONFIG, TaskTrajectory, scenario_trajectory


@pytest.fixture(scope="module")
def desk():
    return load_bundled_model("rs007n")


@pytest.fixture(scope="module")
def desk_large():
    return load_bundled_model("rs020n")


@pytest.fixture(scope="module")
def singularity_runs(desk_large):
    """Baseline IK nominal + closed-loop kinematic MPC over the full scenario."""
    cfg = default_scenario_config("singularity_pass", "kin_mpc")
    traj = scenario_trajectory("singularity_pass", desk_large, cfg.dt)
    q_nom, qd_nom = ik_baseline_sequence(desk_large, traj, SINGULARITY_START_CONFIG,
                                         cfg.svd_threshold)
    result = run_scenario("singularity_pass", "kin_mpc", desk_large, cfg)
    return {"cfg": cfg, "traj": traj, "q_nom": q_nom, "qd_nom": qd_nom, "run": result}


def _report(num: int, name: str, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_dynamics_derivatives(desk):
    t0 = time.perf_counter()
    deriv = run_dynamics_derivative_check(desk, n_states=1000, seed=42, tol=1e-5)
    ident = run_identity_check(desk, n_states=1000, seed=43, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = deriv.passed and ident.passed and elapsed <= 30.0
    _report(1, "dynamics derivatives", ok,
            f"1000 states: fd-match worst {deriv.worst:.2e} (tol 1e-5), "
            f"identity worst {ident.worst:.2e} (tol 1e-10), {elapsed:.1f}s (cap 30s)")


def test_criterion_2_qp_solver(desk):
    t0 = time.perf_counter()
    res = run_qp_check(n_problems=500, seed=7, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed <= 60.0
    _report(2, "qp vs enumeration oracle", ok,
            f"500 problems: worst {res.worst:.2e} (tol 1e-8), {elapsed:.1f}s (cap 60s)")


def test_criterion_3_kin_mpc_constraints(desk_large, singularity_runs):
    cfg = singularity_runs["cfg"]
    run = singularity_runs["run"]
    qd_nom = singularity_runs["qd_nom"]
    q_nom = singularity_runs["q_nom"]
    lim = desk_large.limits

    cmd = run.cmd
    cmd_vel = np.diff(cmd, axis=0) / cfg.dt
    pos_ok = bool(np.all(cmd <= lim.q_max[None, :] + 1e-8)
                  and np.all(cmd >= lim.q_min[None, :] - 1e-8))
    vel_ok = bool(np.all(np.abs(cmd_vel) <= lim.v_max[None, :] + 1e-8))

    viol = np.abs(qd_nom) > lim.v_max[None, :] + 1e-8
    viol_ticks = np.flatnonzero(viol.any(axis=1))
    near_singular = viol_ticks.size > 0 and bool(
        (np.abs(q_nom[viol_ticks, 4]) < 0.5).any()
    )
    ok = pos_ok and vel_ok and near_singular
    _report(3, "kin MPC constraint satisfaction", ok,
            f"commands within limits: pos {pos_ok}, vel {vel_ok}; baseline violates "
            f"velocity limit at {viol_ticks.size} ticks near joint-5 zero "
            f"(min |q5| at violations "
            f"{np.abs(q_nom[viol_ticks, 4]).min() if viol_ticks.size else np.nan:.3f} rad)")


def test_criterion_4_smoothness(singularity_runs):
    cfg = singularity_runs["cfg"]
    run = singularity_runs["run"]
    q_nom = singularity_runs["q_nom"]
    nom_acc = np.abs(np.diff(q_nom, 2, axis=0) / cfg.dt**2).max()
    cmd_acc = np.abs(np.diff(run.cmd, 2, axis=0) / cfg.dt**2).max()
    ok = cmd_acc <= 0.5 * nom_acc
    _report(4, "smoothness vs raw IK nominal", ok,
            f"max |qdd|: mpc commands {cmd_acc:.2f} vs nominal {nom_acc:.2f} "
            f"(ratio {cmd_acc / nom_acc:.3f}, threshold 0.5)")


def test_criterion_5_payload_error_ordering(desk):
    t0 = time.perf_counter()
    cfg = default_scenario_config("payload_pick_place", "osc")
    osc = run_scenario("payload_pick_place", "osc", desk, cfg)
    cfg_mpc = default_scenario_config("payload_pick_place", "dyn_mpc")
    mpc = run_scenario("payload_pick_place", "dyn_mpc", desk, cfg_mpc)
    elapsed = time.perf_counter() - t0
    po, oo = osc.metrics.final_errors()
    pm, om = mpc.metrics.final_errors()
    gap_pos = (po - pm) / po
    gap_ori = (oo - om) / oo
    ok = pm <= po and om <= oo and gap_ori > gap_pos and elapsed <= 300.0
    _report(5, "payload tracking-error ordering", ok,
            f"accumulated pos: mpc {pm:.2f} <= osc {po:.2f}; ori: mpc {om:.2f} <= osc {oo:.2f}; "
            f"relative gaps ori {gap_ori:.3f} > pos {gap_pos:.3f}; {elapsed:.0f}s (cap 300s)")


def test_criterion_6_timing(desk_large):
    rows = bench_horizon(desk_large, "singularity_pass", [2, 5, 10, 20], ticks=300)
    medians = [row["median_ms"] for row in rows]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    med10 = medians[2]
    ok = monotone and med10 <= 5.0
    target_note = "meets 1 ms target" if med10 <= 1.0 else "above 1 ms target"
    _report(6, "horizon timing", ok,
            f"medians {[f'{v:.2f}' for v in medians]} ms for horizons [2, 5, 10, 20]; "
            f"median at 10 = {med10:.2f} ms (hard ceiling 5 ms, {target_note})")


def test_criterion_7_terminal_constraints(desk):
    rng = np.random.default_rng(3)
    q0 = desk.limits.q_min + (desk.limits.q_max - desk.limits.q_min) * (0.3 + 0.4 * rng.random(6))
    pose = forward_kinematics(desk, q0)
    hold = TaskTrajectory(dt=1e-3, poses=(pose,) * 4, tasks=default_task_hierarchy())

    kin_cfg = KinematicMpcConfig(horizon=6, dt=1e-3, task_weight=2000.0, damping_weight=0.01,
                                 terminal_pos_tol=1e-3, terminal_vel_tol=1e-2)
    kin = KinematicMpc(desk, kin_cfg)
    res = kin.step(q0, hold, 0)
    dq = np.abs(res.plan[-1] - res.rollout.q_hat[-1]).max()
    plan_vel = np.abs((res.plan[-1] - res.plan[-2]) / kin_cfg.dt - res.rollout.qd_hat[-1]).max()
    kin_ok = (not res.degraded) and dq <= 1e-3 + 1e-8 and plan_vel <= 1e-2 + 1e-8

    dyn_cfg = DynamicMpcConfig(horizon=6, dt=1e-3, task_weight=10.0, damping_weight=1e-4,
                               terminal_state_tol=1e-3)
    dyn = DynamicMpc(desk, dyn_cfg, posture=default_posture(q0))
    x0 = np.concatenate([q0, np.zeros(6)])
    dres = dyn.step(x0, hold, 0)
    dx = np.abs(dres.plan_states[-1] - dres.rollout.x_hat[-1]).max()
    dyn_ok = (not dres.degraded) and dx <= 1e-3 + 1e-8

    ok = kin_ok and dyn_ok
    _report(7, "terminal stability constraints", ok,
            f"kinematic: |q_N - qhat_N| {dq:.2e} <= 1e-3, vel dev {plan_vel:.2e} <= 1e-2; "
            f"dynamic: |x_N - xhat_N| {dx:.2e} <= 1e-3")


def test_criterion_8_linearization_fidelity(desk):
    rng = np.random.default_rng(11)
    dt = 1e-3
    slopes = []
    for _ in range(3):
        lo, hi = desk.limits.q_min, desk.limits.q_max
        q = lo + (hi - lo) * (0.25 + 0.5 * rng.random(6))
        qd = 0.3 * rng.standard_normal(6)
        x_hat = np.concatenate([q, qd])
        u_hat = 5.0 * rng.standard_normal(6)
        stage = linearize_stage(desk, x_hat, u_hat, dt=dt)

        def nonlinear_step(x):
            qdd = forward_dynamics(desk, x[:6], x[6:], u_hat)
            return x + dt * np.concatenate([x[6:], qdd])

        direction = rng.standard_normal(12)
        direction /= np.linalg.norm(direction)
        mags = np.logspace(-5, -2, 8)
        errs = [
            np.linalg.norm(nonlinear_step(x_hat + m * direction)
                           - (stage.A @ (x_hat + m * direction) + stage.B @ u_hat + stage.r))
            for m in mags
        ]
        slopes.append(np.polyfit(np.log(mags), np.log(errs), 1)[0])
    ok = all(1.9 <= s <= 2.1 for s in slopes)
    _report(8, "linearization fidelity", ok,
            f"log-log slopes of one-step prediction error: {[f'{s:.3f}' for s in slopes]} "
            f"(required 2.0 +/- 0.1)")


def test_criterion_9_determinism(desk_large, tmp_path):
    cfg = default_scenario_config("singularity_pass", "kin_mpc")
    cfg.max_ticks = 150
    files = []
    for tag in ("a", "b"):
        out = run_scenario("singularity_pass", "kin_mpc", desk_large, cfg)
        log = tmp_path / f"{tag}_log.csv"
        rep = tmp_path / f"{tag}_metrics.txt"
        write_log_csv(out, log)
        write_metrics_report(out, rep)
        files.append((log, rep))
    log_same = filecmp.cmp(files[0][0], files[1][0], shallow=False)
    rep_same = filecmp.cmp(files[0][1], files[1][1], shallow=False)
    ok = log_same and rep_same
    _report(9, "determinism", ok,
            f"byte-identical across reruns: log csv {log_same}, metrics report {rep_same}")
