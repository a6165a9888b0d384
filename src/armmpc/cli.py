"""Command-line entry point: scenario runs, horizon benchmarks, self-checks.

Exit codes: 0 success, 2 configuration error, 3 check failure, 4 runtime
failure. Configs come from flags or a JSON file (flags win).
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import sys
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from . import BUNDLED_MODELS, bundled_model_path, load_model
from .checks import CHECK_NAMES, run_checks
from .robot_model import ModelError, PayloadSpec, reject_bools
from .simulator import (
    CONTROLLERS,
    PositionLoopGains,
    ScenarioConfig,
    closed_loop,
    default_scenario_config,
    run_scenario,
    write_log_csv,
    write_metrics_report,
    write_timing_csv,
)
from .trajgen import (
    SCENARIO_DURATIONS,
    SCENARIOS,
    export_trajectory_csv,
    scenario_trajectory,
    step_count,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RUNTIME = 4

DEFAULT_MODELS = {
    "payload_pick_place": "rs007n",
    "singularity_pass": "rs020n",
    "circle_2dof": "rs007n",
}

_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


class ConfigError(click.ClickException):
    exit_code = EXIT_CONFIG


def _resolve_model(model_arg: str | None, scenario: str):
    name_or_path = model_arg or DEFAULT_MODELS.get(scenario, "rs007n")
    if name_or_path in BUNDLED_MODELS:
        path = bundled_model_path(name_or_path)
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
    try:
        return load_model(path)
    except ModelError as exc:
        raise ConfigError(f"invalid model {path}: {exc}") from exc


def _load_config(scenario: str, controller: str, config_path, overrides: dict):
    cfg = default_scenario_config(scenario, controller)
    file_vals = {}
    if config_path:
        try:
            file_vals = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise ConfigError(f"config {config_path} must hold a JSON object")
    merged = {**file_vals, **{k: v for k, v in overrides.items() if v is not None}}
    for key, val in merged.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            _set_config_value(cfg, key, val)
        except (TypeError, ValueError, OverflowError) as exc:  # ModelError is a ValueError
            raise ConfigError(f"bad config value for {key!r}: {exc}") from exc
    try:
        cfg = replace(cfg)  # checked as it is built
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    _check_steps(scenario, cfg.dt, cfg.duration)
    if cfg.max_ticks is not None and not (isinstance(cfg.max_ticks, int) and cfg.max_ticks >= 1):
        raise ConfigError("max_ticks must be an integer >= 1")
    return cfg


def _check_steps(scenario: str, dt: float, duration: float | None) -> None:
    """A ConfigError unless the duration (None: the scenario's own) and dt are
    finite and > 0 and the duration is a whole number of dt steps."""
    try:
        step_count(SCENARIO_DURATIONS[scenario] if duration is None else duration, dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _output_paths(out, *names) -> list[Path]:
    """The files out/name, out created as a directory with its parents; a
    ConfigError naming the path if out cannot be created or a file cannot be
    written, such as a name that is a directory there."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    paths = [Path(out) / name for name in names]
    for path in paths:
        if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: not a writable file")
    return paths


def _set_config_value(cfg: ScenarioConfig, key: str, val) -> None:
    """Store one config value, converted to the type of the field's default."""
    reject_bools(val, key)  # a bool is an int to Python, not a number here
    if key == "payload":
        if val is not None and not (isinstance(val, dict) and "mass" in val):
            raise ValueError("payload must be null or an object with a 'mass'")
        cfg.payload = None if val is None else PayloadSpec(
            mass=float(val["mass"]),
            com_offset=np.asarray(val.get("com_offset", (0, 0, 0)), dtype=float),
        )
    elif key == "position_gains":
        kp, kd = val
        cfg.position_gains = PositionLoopGains(kp=float(kp), kd=float(kd))
    elif key == "duration":
        cfg.duration = None if val is None else float(val)
    else:
        default = getattr(cfg, key)
        if default is not None:
            conv = type(default)(val)
            if isinstance(default, int) and conv != float(val):
                raise ValueError(f"{val!r} is not an integer")
            val = conv
        setattr(cfg, key, val)


@click.group()
def main():
    """QP-based MPC for serial manipulators: scenarios, benchmarks, checks."""


@main.command("run")
@click.option("--model", "model_arg", default=None, help="bundled name or *.robot.json path")
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@click.option("--controller", type=click.Choice(CONTROLLERS), required=True)
@click.option("--horizon", type=int, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--duration", type=float, default=None)
@click.option("--max-ticks", type=int, default=None)
@click.option("--out", type=click.Path(), default="out")
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_run(model_arg, scenario, controller, horizon, dt, duration, max_ticks, out,
            config_path):
    """Run one scenario and write log/timing CSVs plus a metrics report."""
    model = _resolve_model(model_arg, scenario)
    cfg = _load_config(scenario, controller, config_path, {
        "horizon": horizon, "dt": dt, "duration": duration,
        "max_ticks": max_ticks,
    })
    stem = f"{scenario}_{controller}"
    log, timing, report = _output_paths(out, f"{stem}_log.csv", f"{stem}_timing.csv",
                                        f"{stem}_metrics.txt")
    try:
        result = run_scenario(scenario, controller, model, cfg)
    except Exception as exc:  # runtime failures map to exit 4
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    write_log_csv(result, log)
    write_timing_csv(result, timing)
    write_metrics_report(result, report)
    m = result.metrics
    pos_final, ori_final = m.final_errors()
    click.echo(f"{stem}: {result.t.shape[0]} ticks, accumulated errors "
               f"pos {pos_final:.4f} / ori {ori_final:.4f}, degraded {m.degraded_ticks}, "
               f"saturated {m.saturated_ticks}")
    click.echo(f"artifacts in {log.parent}")
    sys.exit(EXIT_OK)


@main.command("bench-horizon")
@click.option("--model", "model_arg", default=None)
@click.option("--scenario", type=click.Choice(SCENARIOS), default="singularity_pass")
@click.option("--horizons", default="2,5,10,20", help="comma-separated horizon list")
@click.option("--ticks", type=int, default=300, help="controller ticks per horizon")
@click.option("--dt", type=float, default=None)
@click.option("--out", type=click.Path(), default="out")
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_bench_horizon(model_arg, scenario, horizons, ticks, dt, out, config_path):
    """Benchmark kinematic-MPC step time against the receding horizon."""
    try:
        horizon_list = [int(h) for h in horizons.split(",") if h.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad horizon list {horizons!r}: {exc}") from exc
    if not horizon_list:
        raise ConfigError("horizon list is empty")
    if ticks < 1:
        raise ConfigError("ticks must be >= 1")
    model = _resolve_model(model_arg, scenario)
    # the listed horizons and the tick count override the file's, as flags do
    cfg = _load_config(scenario, "kin_mpc", config_path,
                       {"horizon": horizon_list[0], "dt": dt, "max_ticks": ticks})
    for horizon in horizon_list:  # every config error before the output directory
        try:
            replace(cfg, horizon=horizon, max_ticks=ticks)
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
    path, = _output_paths(out, "bench_horizon.csv")
    rows = bench_horizon(model, scenario, horizon_list, ticks, cfg=cfg)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "ticks", "min_ms", "median_ms", "p99_ms"])
        for row in rows:
            writer.writerow([row["horizon"], row["ticks"], f"{row['min_ms']:.4f}",
                             f"{row['median_ms']:.4f}", f"{row['p99_ms']:.4f}"])
    for row in rows:
        click.echo(f"horizon {row['horizon']:>3}: median {row['median_ms']:.3f} ms "
                   f"(min {row['min_ms']:.3f}, p99 {row['p99_ms']:.3f})")
    medians = [row["median_ms"] for row in rows]
    if any(b < a for a, b in zip(medians, medians[1:])):
        click.echo("median step time is not nondecreasing in the horizon", err=True)
        sys.exit(EXIT_RUNTIME)
    click.echo(f"wrote {path}")
    sys.exit(EXIT_OK)


def bench_horizon(model, scenario: str, horizon_list, ticks: int,
                  cfg: ScenarioConfig | None = None) -> list[dict]:
    """Timing stats per horizon for the kinematic MPC on a fixed tick count.

    Each horizon is one simulator.closed_loop, the loop and timer that
    run_scenario drains, of a kin_mpc run of cfg (None: the scenario's
    default config) at that horizon, truncated to `ticks`. The loops
    are advanced in turn, one tick each, so a change of machine speed
    reaches every horizon alike and cannot decide their order. The first 5
    ticks (cold start) are left out of the statistics.
    """
    cfg = default_scenario_config(scenario, "kin_mpc") if cfg is None else cfg
    loops = [closed_loop(scenario, "kin_mpc", model, replace(cfg, horizon=horizon, max_ticks=ticks))
             for horizon in horizon_list]
    times = np.array(list(zip(*loops)))  # one row per tick, one column per horizon
    warm = times[min(5, len(times) - 1):]  # drop cold-start ticks
    return [{
        "horizon": horizon,
        "ticks": len(times),
        "min_ms": float(np.min(col) * 1e3),
        "median_ms": float(statistics.median(col) * 1e3),
        "p99_ms": float(np.percentile(col, 99) * 1e3),
    } for horizon, col in zip(horizon_list, warm.T)]


@main.command("check")
@click.option("--model", "model_arg", default=None)
@click.option("--checks", "which", default=",".join(CHECK_NAMES),
              help=f"comma-separated subset of {CHECK_NAMES}")
@click.option("--seed", type=int, default=0)
def cmd_check(model_arg, which, seed):
    """Run the self-verification suites (derivatives, QP oracle, identities,
    world-frame pass)."""
    names = tuple(w.strip() for w in which.split(",") if w.strip())
    if not names:
        raise ConfigError("check list is empty")
    unknown = [w for w in names if w not in CHECK_NAMES]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; available: {CHECK_NAMES}")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    model = _resolve_model(model_arg, "payload_pick_place")
    results = run_checks(model, which=names, seed=seed)
    failed = False
    for res in results:
        click.echo(res.line())
        failed = failed or not res.passed
    sys.exit(EXIT_CHECK if failed else EXIT_OK)


@main.command("export-traj")
@click.option("--model", "model_arg", default=None)
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@click.option("--dt", type=float, default=1e-3)
@click.option("--duration", type=float, default=None)
@click.option("--out", type=click.Path(), default="trajectory.csv")
def cmd_export_traj(model_arg, scenario, dt, duration, out):
    """Write a scenario trajectory as CSV (t, px, py, pz, qw, qx, qy, qz)."""
    _check_steps(scenario, dt, duration)
    model = _resolve_model(model_arg, scenario)
    traj = scenario_trajectory(scenario, model, dt, duration=duration)
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        export_trajectory_csv(traj, out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    click.echo(f"wrote {out} ({traj.n_samples} samples, {traj.duration:.3f} s)")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
