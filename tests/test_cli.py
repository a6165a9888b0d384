import csv
import json

import pytest
from click.testing import CliRunner

from armmpc import bundled_model_path, cli
from armmpc.checks import CheckResult
from armmpc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_run_happy_path(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, [
        "run", "--scenario", "singularity_pass", "--controller", "kin_mpc",
        "--horizon", "5", "--max-ticks", "40", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / "singularity_pass_kin_mpc_log.csv").exists()
    assert (out / "singularity_pass_kin_mpc_timing.csv").exists()
    assert (out / "singularity_pass_kin_mpc_metrics.txt").exists()


def test_run_missing_model(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--model", str(tmp_path / "missing.robot.json"),
        "--scenario", "singularity_pass", "--controller", "kin_mpc",
    ])
    assert result.exit_code == 2
    assert "missing.robot.json" in result.output


def test_run_comparison_workflow(runner, tmp_path):
    out = tmp_path / "cmp"
    for controller in ("osc", "dyn_mpc"):
        result = runner.invoke(main, [
            "run", "--scenario", "payload_pick_place", "--controller", controller,
            "--horizon", "3", "--max-ticks", "30", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
    a = (out / "payload_pick_place_osc_metrics.txt").read_text()
    b = (out / "payload_pick_place_dyn_mpc_metrics.txt").read_text()
    assert "accumulated_pos_err_final" in a and "accumulated_pos_err_final" in b


def test_run_rejects_seed(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", "osc", "--seed", "1",
        "--max-ticks", "5", "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 2, "max_ticks": 25}))
    out = tmp_path / "o"
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", "osc",
        "--config", str(cfg), "--max-ticks", "15", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "circle_2dof_osc_log.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 15  # flag wins over the config file


@pytest.mark.parametrize("key", ["not_a_key", "substeps"])
def test_bad_config_key(runner, tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", "osc",
        "--config", str(cfg),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("doc, controller", [
    ({"horizon": "abc"}, "osc"),
    ({"horizon": 2.5}, "osc"),
    ({"horizon": True}, "kin_mpc"),
    ({"max_ticks": True}, "osc"),
    ({"svd_threshold": [1]}, "osc"),
    ({"payload": {"m": 1}}, "osc"),
    ({"payload": 3}, "osc"),
    ({"payload": {"mass": -1}}, "osc"),
    ({"payload": {"mass": "nan"}}, "osc"),
    ({"payload": {"mass": "inf"}}, "osc"),
    ({"position_gains": [1]}, "osc"),
    ({"position_gains": ["a", 2]}, "osc"),
    ({"position_gains": [-5, 2]}, "osc"),
    ({"position_gains": [5, "nan"]}, "osc"),
    ({"duration": "x"}, "osc"),
    ({"duration": -1}, "osc"),
    ({"duration": 0}, "osc"),
    ({"dt": "nan"}, "osc"),
    ([1], "osc"),
    ('{"horizon": Infinity}', "osc"),
    ('{"horizon": 1e400}', "osc"),
    ({"svd_threshold": 2}, "osc"),
    ({"svd_threshold": 0}, "kin_mpc"),
    ({"damping_weight": "nan"}, "kin_mpc"),
    ({"task_weight": "inf"}, "dyn_mpc"),
    ({"accel_weight": -1}, "kin_mpc"),
    ({"input_weight": "nan"}, "dyn_mpc"),
    ({"terminal_pos_tol": -1}, "kin_mpc"),
    ({"terminal_vel_tol": 0}, "kin_mpc"),
    ({"terminal_state_tol": "inf"}, "dyn_mpc"),
    ({"position_gains": [True, 5]}, "osc"),
    ({"payload": {"mass": True}}, "osc"),
    ({"payload": {"mass": 12, "com_offset": [True, 0, 0]}}, "osc"),
], ids=["horizon-str", "horizon-fraction", "horizon-bool", "max-ticks-bool", "float-list", "payload-no-mass", "payload-number",
        "payload-negative", "payload-nan", "payload-inf", "gains-short", "gains-str", "gains-negative", "gains-nan",
        "duration-str", "duration-negative", "duration-zero", "dt-nan", "not-an-object",
        "horizon-infinity", "horizon-overflow", "svd-above-one", "svd-zero", "damping-nan",
        "task-inf", "accel-negative", "input-nan", "terminal-pos-negative",
        "terminal-vel-zero", "terminal-state-inf", "gains-bool", "payload-mass-bool",
        "payload-com-bool"])
def test_bad_config_value_is_config_error(runner, tmp_path, doc, controller):
    # a str is the raw file text, for values json.dumps cannot write as such
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", controller,
        "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [result.output.strip()]
    assert "Error" in result.output
    assert not (tmp_path / "o").exists()


def test_bad_duration_flag_is_config_error(runner, tmp_path):
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", "osc",
        "--duration", "-2", "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2, result.output
    assert "duration must be a positive number" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--dt", "0.35"],
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--duration", "1.0005"],
    ["export-traj", "--scenario", "circle_2dof", "--dt", "0.35"],
    ["bench-horizon", "--horizons", "3", "--ticks", "2", "--dt", "0.0007"],
], ids=["run-dt", "run-duration", "export-traj-dt", "bench-dt"])
def test_duration_of_no_whole_number_of_steps_is_config_error(runner, tmp_path, args):
    # the trajectory is sampled on the controller's dt grid, which must reach
    # its end in whole steps
    out = tmp_path / "o"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "is not a whole number of steps dt" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--max-ticks", "0"],
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--max-ticks", "-3"],
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--config", "CONFIG"],
    ["bench-horizon", "--horizons", "3", "--ticks", "0"],
], ids=["run-zero", "run-negative", "config-zero", "bench-zero"])
def test_tick_count_below_one_is_config_error(runner, tmp_path, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_ticks": 0}))
    args = [str(cfg) if a == "CONFIG" else a for a in args]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [result.output.strip()]
    assert "ticks must be" in result.output
    assert not (tmp_path / "o").exists()


def test_bench_horizon_single(runner, tmp_path):
    out = tmp_path / "bench"
    result = runner.invoke(main, [
        "bench-horizon", "--horizons", "3", "--ticks", "25", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "bench_horizon.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["horizon", "ticks", "min_ms", "median_ms", "p99_ms"]
    assert len(rows) == 2


def test_bench_horizon_monotone_pair(runner, tmp_path, monkeypatch):
    # fixed timing rows, so machine load cannot invert the pair: nondecreasing
    # medians pass and are written out, a decreasing pair is a runtime failure
    def fixed_rows(medians):
        return lambda model, scenario, horizons, ticks, **kwargs: [
            {"horizon": h, "ticks": ticks, "min_ms": 0.5, "median_ms": m, "p99_ms": 2.0 * m}
            for h, m in zip(horizons, medians)]

    args = ["bench-horizon", "--horizons", "2,8", "--ticks", "40"]
    monkeypatch.setattr(cli, "bench_horizon", fixed_rows([1.0, 1.0]))
    result = runner.invoke(main, args + ["--out", str(tmp_path / "flat")])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "flat" / "bench_horizon.csv") as fh:
        assert list(csv.reader(fh))[1:] == [["2", "40", "0.5000", "1.0000", "2.0000"],
                                            ["8", "40", "0.5000", "1.0000", "2.0000"]]
    monkeypatch.setattr(cli, "bench_horizon", fixed_rows([2.0, 1.0]))
    result = runner.invoke(main, args + ["--out", str(tmp_path / "down")])
    assert result.exit_code == 4
    assert "median step time is not nondecreasing in the horizon" in result.output


def test_bench_horizon_bad_list(runner):
    result = runner.invoke(main, ["bench-horizon", "--horizons", "a,b"])
    assert result.exit_code == 2


def test_check_filtered_qp(runner):
    result = runner.invoke(main, ["check", "--checks", "identity"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_check_world_pass(runner):
    result = runner.invoke(main, ["check", "--checks", "world_pass"])
    assert result.exit_code == 0, result.output
    names = [line.split(":")[0] for line in result.output.splitlines()]
    assert names == ["[PASS] world_pass_bias_vs_rnea", "[PASS] world_pass_mass_vs_rnea",
                     "[PASS] world_pass_jdot_qd_vs_fd"]


def test_check_unknown_name(runner):
    result = runner.invoke(main, ["check", "--checks", "bogus"])
    assert result.exit_code == 2


def test_check_failure_exit_code(runner, monkeypatch):
    # a reported failure -> exit 3
    failing = CheckResult("fd_id_derivative_identity", False, 1.0, 1e-10, "state 0")
    monkeypatch.setattr(cli, "run_checks", lambda model, which, seed: [failing])
    result = runner.invoke(main, ["check", "--checks", "identity"])
    assert result.exit_code == 3
    assert "FAIL" in result.output


@pytest.mark.parametrize("args", [
    ["--seed", "-1"],
    ["--checks", ","],
    ["--checks", " , "],
], ids=["seed-negative", "checks-empty", "checks-blank"])
def test_check_bad_option_is_config_error(runner, args):
    # an empty selection used to run no suite and exit 0
    result = runner.invoke(main, ["check", "--checks", "identity"] + args)
    assert result.exit_code == 2, result.output
    assert "PASS" not in result.output


def test_check_detects_corrupted_model(runner, tmp_path):
    doc = {
        "joints": [
            {"kind": "revolute", "axis": [0, 0, 1],
             "limits": {"q": [-3, 3], "v": 5.0, "u": 10.0}}
        ],
        "links": [{"mass": 1.0, "com": [0.5, 0, 0], "inertia": [1e-3, 0, 0, 1e-3, 0, -1e-3]}],
    }
    path = tmp_path / "bad.robot.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", "--model", str(path), "--checks", "identity"])
    assert result.exit_code == 2
    assert "positive definite" in result.output


@pytest.mark.parametrize("field", ["mass", "rpy"])
def test_run_with_non_finite_model_number_is_config_error(runner, tmp_path, field):
    # a link mass used to fail at the first tick (exit 4), an rpy angle with
    # a bare math domain error (exit 1)
    doc = json.loads(bundled_model_path("rs007n").read_text())
    if field == "mass":
        doc["links"][2]["mass"] = float("inf")
    else:
        doc["joints"][1]["origin"]["rpy"] = [float("inf"), 0, 0]
    path = tmp_path / "nonfinite.robot.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [
        "run", "--model", str(path), "--scenario", "circle_2dof", "--controller", "osc",
        "--max-ticks", "5", "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2, result.output
    assert "not a finite number" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["traj.csv", "missing/dir/traj.csv"])
def test_export_traj(runner, tmp_path, name):
    # the output's missing directories are created, as run does for --out
    out = tmp_path / name
    result = runner.invoke(main, [
        "export-traj", "--scenario", "singularity_pass", "--dt", "0.01", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
    assert len(rows) == 402  # 4 s at 10 ms + header


@pytest.mark.parametrize("flag, value", [("--dt", "-1"), ("--dt", "0"), ("--dt", "nan"),
                                         ("--duration", "-1"), ("--duration", "inf")])
def test_export_traj_bad_step_or_duration_is_config_error(runner, tmp_path, flag, value):
    out = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "export-traj", "--scenario", "circle_2dof", flag, value, "--out", str(out),
    ])
    assert result.exit_code == 2, result.output
    assert f"{flag[2:]} must be a positive number" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "circle_2dof", "--controller", "osc", "--max-ticks", "2"],
    ["bench-horizon", "--horizons", "2", "--ticks", "2"],
    ["export-traj", "--scenario", "circle_2dof"],
], ids=["run", "bench-horizon", "export-traj"])
def test_an_output_path_that_cannot_be_created_is_a_config_error(runner, tmp_path, monkeypatch,
                                                                 args):
    # a file where the output directory goes used to end in a traceback
    # (exit 1), for bench-horizon only after it had timed every horizon
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "run_scenario", unreachable)
    monkeypatch.setattr(cli, "bench_horizon", unreachable)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "traj.csv" if args[0] == "export-traj" else blocker
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert len(result.output.strip().splitlines()) == 1, result.output
    assert "cannot" in result.output and str(blocker) in result.output
