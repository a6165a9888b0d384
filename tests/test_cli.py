import csv
import json

import pytest
from click.testing import CliRunner

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


def test_bad_config_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    result = runner.invoke(main, [
        "run", "--scenario", "circle_2dof", "--controller", "osc",
        "--config", str(cfg),
    ])
    assert result.exit_code == 2


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


def test_bench_horizon_monotone_pair(runner, tmp_path):
    out = tmp_path / "bench2"
    result = runner.invoke(main, [
        "bench-horizon", "--horizons", "2,8", "--ticks", "40", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "bench_horizon.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    medians = [float(r[3]) for r in rows]
    assert medians[0] <= medians[1]


def test_bench_horizon_bad_list(runner):
    result = runner.invoke(main, ["bench-horizon", "--horizons", "a,b"])
    assert result.exit_code == 2


def test_check_filtered_qp(runner):
    result = runner.invoke(main, ["check", "--checks", "identity"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_check_unknown_name(runner):
    result = runner.invoke(main, ["check", "--checks", "bogus"])
    assert result.exit_code == 2


def test_check_failure_exit_code(runner):
    # impossible tolerance forces a reported failure -> exit 3
    result = runner.invoke(main, ["check", "--checks", "identity", "--tol-scale", "1e-12"])
    assert result.exit_code == 3
    assert "FAIL" in result.output


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


def test_export_traj(runner, tmp_path):
    out = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "export-traj", "--scenario", "singularity_pass", "--dt", "0.01", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
    assert len(rows) == 402  # 4 s at 10 ms + header
