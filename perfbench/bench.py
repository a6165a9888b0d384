"""The benchmark's closed-loop workloads and the measurement of one run.

Every workload ticks one controller against its plant through the public
``armmpc.simulator.run_scenario`` at horizon 10 and dt = 1e-3, with the
reference weights of ``default_scenario_config``. Seed 0 runs the paper
scenario by name; any other seed runs the same trajectory from a start
configuration offset by a small seeded joint perturbation.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import armmpc
from armmpc import simulator, trajgen
from probes import SETUP_LAYERS, TICK_LAYERS, HostGauge, Patches, Tracer, TickProbe

# Per-joint amplitude of the start offset for seeds other than 0. Small
# enough that every seed still crosses the wrist singularity on
# kin_singularity and still rejects hot starts on dyn_payload, and that the
# saturating OSC baseline's accumulated errors move by a few percent only.
Q0_JITTER = 5e-4  # rad
SETUP_REPS = 11  # set-ups per run; setup_s is their median
# Untraced and traced short passes alternate this many times to measure the
# tracing overhead; alternation keeps drifts in host speed out of the ratio.
OVERHEAD_PAIRS = 3
WRIST = slice(3, 6)  # angular rows and wrist joints of the geometric Jacobian


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    controller: str
    model: str
    entry: tuple[str, str, str | None]  # (module, attribute, class) of the controller call
    command: str | None  # attribute of the call's result holding the command
    overhead_ticks: int  # length of one overhead pass, about a second of work


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("kin_singularity", "singularity_pass", "kin_mpc", "rs020n",
             ("mpc_kinematic", "step", "KinematicMpc"), "q_cmd", 150),
    Workload("dyn_payload", "payload_pick_place", "dyn_mpc", "rs007n",
             ("mpc_dynamic", "step", "DynamicMpc"), "u_cmd", 16),
    Workload("osc_payload", "payload_pick_place", "osc", "rs007n",
             ("simulator", "osc_torque", None), None, 300),
)}


@dataclass
class Pass:
    """One run_scenario call, from loading the model to its return."""

    result: simulator.RunResult
    model: armmpc.RobotModel
    cfg: simulator.ScenarioConfig
    start: float  # perf_counter() when the model load began
    start_gauge: float  # host gauge reading right before start
    call_starts: list[float]  # entry time of each controller call
    gate_s: list[float]  # bench gauge and gate time in each controller call
    gauges: list[tuple[float, float]]  # host gauge readings around each call

    @property
    def setup_s(self) -> float:
        """Load, attach payload, trajectory, controller and the cold first tick."""
        return self.call_starts[1] - self.start - self.gate_s[0]

    @property
    def setup_gauge(self) -> float:
        """Mean host gauge reading around the set-up."""
        return float(np.mean([self.start_gauge, *self.gauges[0], self.gauges[1][0]]))

    def tick_periods(self) -> tuple[np.ndarray, np.ndarray]:
        """Wall time of each closed-loop tick after the first, from one
        controller call to the next, without the bench's own gauge and gate
        time; and the mean host gauge reading around each tick."""
        starts = np.asarray(self.call_starts)
        periods = (np.diff(starts) - np.asarray(self.gate_s[:-1]))[1:]
        g = np.asarray(self.gauges)
        return periods, (g[1:-1].sum(axis=1) + g[2:, 0]) / 3.0


@dataclass
class Outcome:
    metrics: dict[str, float]
    notes: dict[str, object]  # reported, not gated
    problems: list[str]  # run-level gate failures
    attempted: int
    failed: int


def scenario_input(w: Workload, model, cfg, seed: int):
    """What run_scenario receives: the scenario name, or a (trajectory, q0) pair."""
    if seed == 0:
        return w.scenario
    traj = trajgen.scenario_trajectory(w.scenario, model, cfg.dt, duration=cfg.duration)
    q0 = trajgen.scenario_initial_config(w.scenario, model)
    q0 = q0 + np.random.default_rng(seed).uniform(-Q0_JITTER, Q0_JITTER, model.n)
    return traj, q0


def run_pass(w: Workload, seed: int, probe: TickProbe, max_ticks: int | None = None) -> Pass:
    probe.begin_pass()
    start_gauge = probe.gauge()
    start = time.perf_counter()
    model = armmpc.load_bundled_model(w.model)
    cfg = simulator.default_scenario_config(w.scenario, w.controller)
    cfg.max_ticks = max_ticks
    result = simulator.run_scenario(scenario_input(w, model, cfg, seed), w.controller,
                                    model, cfg)
    return Pass(result, model, cfg, start, start_gauge, probe.call_starts, probe.gate_s,
                probe.gauges)


@contextlib.contextmanager
def instrument(w: Workload, probe: TickProbe, tracer: Tracer | None = None):
    """Probes installed for the duration of the block, then removed."""
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches, TICK_LAYERS + SETUP_LAYERS)
        probe.install(patches, *w.entry)  # outermost, so gate time stays out of the spans
        yield


def at_reference_speed(seconds, gauges) -> np.ndarray:
    """Timed intervals rescaled to the host speed at which the gauge reads
    HostGauge.REFERENCE_S; `gauges` holds the mean reading around each."""
    return np.asarray(seconds) * HostGauge.REFERENCE_S / np.asarray(gauges)


def setup_passes(w: Workload, seed: int, probe: TickProbe) -> list[Pass]:
    return [run_pass(w, seed, probe, max_ticks=2) for _ in range(SETUP_REPS)]


def measured_passes(w: Workload, seed: int, seconds: float, probe: TickProbe,
                    min_passes: int) -> list[Pass]:
    """Whole closed-loop passes until `seconds` have elapsed."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(w, seed, probe))
    return passes


def tick_periods(passes) -> tuple[np.ndarray, np.ndarray]:
    """Wall tick periods of all passes, and the mean gauge reading around each."""
    periods, gauges = zip(*(p.tick_periods() for p in passes))
    return np.concatenate(periods), np.concatenate(gauges)


def ticks_per_s(passes) -> float:
    """Closed-loop tick rate: the reciprocal of the median tick period at
    the reference host speed."""
    return 1.0 / float(np.median(at_reference_speed(*tick_periods(passes))))


def log_digest(result, tmpdir: Path) -> str:
    """sha256 of the per-tick log that simulator.write_log_csv writes."""
    path = tmpdir / "log.csv"
    simulator.write_log_csv(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wrist_ratio_min(p: Pass) -> float:
    """Smallest sigma_min / sigma_max of the wrist Jacobian along the logged q."""
    jacs = np.array([armmpc.geometric_jacobian(p.model, q)[WRIST, WRIST] for q in p.result.q])
    sv = np.linalg.svd(jacs, compute_uv=False)
    return float((sv[:, -1] / sv[:, 0]).min())


def gate_passes(w: Workload, passes, probe: TickProbe, tmpdir: Path) -> tuple[list[str], dict]:
    """Run-level checks: determinism, limits, and the workload's character."""
    problems = []
    digests = sorted({log_digest(p.result, tmpdir) for p in passes})
    if len(digests) > 1:
        problems.append(f"per-tick logs differ between {len(passes)} passes of one seed")
    notes = {"log_sha256": digests[0] if len(digests) == 1 else digests}
    if w.name == "kin_singularity":
        violations = sum(p.result.metrics.limit_violations for p in passes)
        if violations:
            problems.append(f"{violations} joint-limit violations")
        ratio = wrist_ratio_min(passes[0])
        notes["wrist_sv_ratio_min"] = ratio
        if not ratio < passes[0].cfg.svd_threshold:
            problems.append(f"wrist singular-value ratio stays at {ratio:.3g}, "
                            f"never below svd_threshold {passes[0].cfg.svd_threshold}")
    if w.name == "dyn_payload" and probe.hot_attempts == probe.hot_accepted:
        problems.append("the QP hot start was never rejected")
    frac = probe.hot_accepted / probe.hot_attempts if probe.hot_attempts else 0.0
    notes.update(passes=len(passes), hot_start_accepted=probe.hot_accepted,
                 hot_start_attempts=probe.hot_attempts, hot_start_accept_frac=frac)
    return problems, notes


def measure(w: Workload, seed: int, seconds: float, tmpdir: Path) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    probe = TickProbe(w.command, HostGauge())
    with instrument(w, probe):
        setups = setup_passes(w, seed, probe)
        probe.reset_samples()
        # at seed 0 two passes must give the same per-tick log
        passes = measured_passes(w, seed, seconds, probe, 2 if seed == 0 else 1)
    problems, notes = gate_passes(w, passes, probe, tmpdir)

    wall_ms = 1e3 * np.asarray(probe.step_s)
    steps_ms = at_reference_speed(wall_ms, probe.step_gauge)
    setups += passes
    setup = at_reference_speed([p.setup_s for p in setups], [p.setup_gauge for p in setups])
    pos_err, ori_err = passes[0].result.metrics.final_errors()
    metrics = {
        "step_ms_p50": float(np.median(steps_ms)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "ticks_per_s": ticks_per_s(passes),
        "acc_pos_err": pos_err,
        "acc_ori_err": ori_err,
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_periods = tick_periods(passes)[0]
    notes.update(step_samples=int(steps_ms.size),
                 step_ms_p99=float(np.percentile(steps_ms, 99)),
                 step_ms_max=float(steps_ms.max()),
                 wall_step_ms_p50=float(np.median(wall_ms)),
                 wall_step_ms_p90=float(np.percentile(wall_ms, 90)),
                 wall_ticks_per_s=1.0 / float(np.median(wall_periods)),
                 wall_setup_s=statistics.median(p.setup_s for p in setups),
                 host_slowdown=float(np.median(probe.step_gauge)) / HostGauge.REFERENCE_S,
                 failed_frac=probe.failed / probe.attempted)
    return Outcome(metrics, notes, problems, probe.attempted, probe.failed)


def tracing_overhead(w: Workload, seed: int, probe: TickProbe, tracer: Tracer) -> float:
    """Median over alternating pairs of traced / untraced median tick period
    at the reference host speed, minus 1."""
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        passes = []
        for pair_tracer in (None, tracer):
            with instrument(w, probe, pair_tracer):
                passes.append(run_pass(w, seed, probe, max_ticks=w.overhead_ticks))
        untraced, traced = (np.median(at_reference_speed(*p.tick_periods())) for p in passes)
        ratios.append(traced / untraced)
    return float(np.median(ratios)) - 1.0


def trace(w: Workload, seed: int, seconds: float, tmpdir: Path) -> Outcome:
    """Traced run: per-layer calls, inclusive and self time, and QP counters.

    Span times are rescaled to the reference host speed by the mean gauge
    reading of the passes they were taken in.
    """
    probe = TickProbe(w.command, HostGauge())
    tracer = Tracer()
    with instrument(w, probe, tracer):
        setups = setup_passes(w, seed, probe)
    ms = 1e3 * HostGauge.REFERENCE_S / float(np.mean([p.setup_gauge for p in setups]))
    setup_ms = {layer.label: ms * statistics.median(tracer.stats[layer.label].durations or [0.0])
                for layer in SETUP_LAYERS}
    overhead = tracing_overhead(w, seed, probe, tracer)
    tracer.reset()
    probe.reset_samples()
    with instrument(w, probe, tracer):
        passes = measured_passes(w, seed, seconds, probe, 1)
    problems, notes = gate_passes(w, passes, probe, tmpdir)

    ticks = sum(len(p.call_starts) for p in passes)
    ms = 1e3 * HostGauge.REFERENCE_S / float(np.mean(probe.step_gauge))
    metrics = {}
    for layer in TICK_LAYERS:
        stats = tracer.stats[layer.label]
        metrics[f"{layer.label}.calls_per_tick"] = len(stats.durations) / ticks
        metrics[f"{layer.label}.ms_per_tick"] = ms * sum(stats.durations) / ticks
        metrics[f"{layer.label}.self_ms_per_tick"] = ms * stats.self_s / ticks
    for label, setup in setup_ms.items():
        metrics[f"{label}.ms"] = setup
    solve_ms = ms * np.asarray(tracer.stats["qp.solve"].durations or [0.0])
    iterations = np.asarray([it for it, _ in probe.solves] or [0])
    active = np.asarray([rows for _, rows in probe.solves] or [0])
    metrics.update({
        "qp.solve.ms_p50": float(np.median(solve_ms)),
        "qp.solve.ms_p90": float(np.percentile(solve_ms, 90)),
        "qp.iterations.p50": float(np.median(iterations)),
        "qp.iterations.max": float(iterations.max()),
        "qp.active_set.p50": float(np.median(active)),
        "qp.hot_start_accept_frac": notes["hot_start_accept_frac"],
        "trace.ticks_per_s": ticks_per_s(passes),
        "trace.overhead_pct": 100.0 * overhead,
    })
    notes["ticks"] = ticks
    return Outcome(metrics, notes, problems, probe.attempted, probe.failed)
