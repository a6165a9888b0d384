"""Every armmpc name the benchmark under perfbench/ instruments still resolves.

The benchmark wraps methods through the class's own __dict__ and functions
as module attributes, so moving a traced method into a base class or a
traced function out of its module breaks its --trace 1 runs and timed entry
points. The benchmark's files are only imported here, never changed.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from armmpc import load_bundled_model, qp, simulator
from armmpc.checks import dense_rows
from armmpc.dynamics import RigidBodyState
from armmpc.kinematics import forward_kinematics
from armmpc.mpc_dynamic import DynamicMpc, DynamicMpcConfig
from armmpc.nominal import default_posture, default_task_hierarchy
from armmpc.trajgen import TaskTrajectory

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("probes"), importlib.import_module("bench")


def resolves(module: str, attr: str, method_of: str | None) -> bool:
    mod = importlib.import_module(f"armmpc.{module}")
    if method_of is None:
        return callable(getattr(mod, attr, None))
    return callable(vars(getattr(mod, method_of)).get(attr))


def test_probe_targets_resolve(perfbench):
    probes, bench = perfbench
    for layer in probes.TICK_LAYERS + probes.SETUP_LAYERS:
        assert resolves(layer.module, layer.attr, layer.method_of), layer.label
    for workload in bench.WORKLOADS.values():
        assert resolves(*workload.entry), workload.name
    assert {"solve", "_try_hot_start"} <= set(vars(qp.QpSolver))


def test_kin_singularity_accepts_one_hot_start_per_tick(monkeypatch):
    # the workload's character: after the first tick, each kinematic MPC
    # tick judges one hot start, from the last tick's active set, and
    # accepts it, also when that set is empty; a solve without a warm start
    # judges none
    judged, solves = [], []
    judge, solve = qp.QpSolver._try_hot_start, qp.QpSolver.solve

    def spy(self, *args):
        judged.append(judge(self, *args))
        return judged[-1]

    def keep(self, p, warm_start=None):
        before = len(judged)
        sol = solve(self, p, warm_start)
        solves.append((p, warm_start, judged[before:]))
        return sol

    monkeypatch.setattr(qp.QpSolver, "_try_hot_start", spy)
    monkeypatch.setattr(qp.QpSolver, "solve", keep)
    cfg = simulator.default_scenario_config("singularity_pass", "kin_mpc")
    cfg.max_ticks = 40
    simulator.run_scenario("singularity_pass", "kin_mpc", load_bundled_model("rs020n"), cfg)
    assert len(solves) == 40 and solves[0][1] is None and solves[0][2] == []
    for _, warm, tick_judged in solves[1:]:
        assert warm is not None and len(tick_judged) == 1 and tick_judged[0] is not None
    assert any(warm == () for _, warm, _ in solves[1:])
    del judged[:]
    qp.QpSolver().solve(solves[-1][0], warm_start=None)
    assert judged == []


def test_certificate_sees_the_bound_rows(perfbench, monkeypatch):
    # a far target drives the dynamic MPC into its torque box; the benchmark
    # certifies that optimal solve, and must refuse it once the multiplier
    # of one active bound has the wrong sign
    probes, _ = perfbench
    solves = []
    solve = qp.QpSolver.solve

    def keep(self, p, warm_start=None):
        solves.append((p, solve(self, p, warm_start)))
        return solves[-1][1]

    monkeypatch.setattr(qp.QpSolver, "solve", keep)
    model = load_bundled_model("rs007n")
    q0 = 0.5 * (model.limits.q_min + model.limits.q_max)
    far = forward_kinematics(model, q0 + 0.4)
    traj = TaskTrajectory(dt=1e-3, poses=(far,) * 30, tasks=default_task_hierarchy())
    cfg = DynamicMpcConfig(horizon=4, dt=1e-3, task_weight=1e4, damping_weight=1e-4)
    DynamicMpc(model, cfg, posture=default_posture(q0)).step(RigidBodyState(model, q0), traj, 0)
    problem, sol = solves[-1]
    assert sol.status == qp.OPTIMAL and probes.certified(problem, sol)
    a, _, n_eq = dense_rows(problem)
    ids = np.asarray(sol.active_set)
    bound = (ids >= n_eq) & (np.count_nonzero(a[ids], axis=1) == 1)
    strongest = int(np.argmax(np.where(bound, sol.multipliers, -np.inf)))
    assert bound[strongest] and sol.multipliers[strongest] > 1.0
    flipped = sol.multipliers.copy()
    flipped[strongest] *= -1.0
    assert not probes.certified(problem, replace(sol, multipliers=flipped))


def test_each_workload_sets_up_as_many_qp_patterns_as_before(perfbench):
    # a whole seed-0 pass of each workload: the kinematic MPC's QP has one
    # pattern, the dynamic MPC's two (its rest start's first Ain is sparser
    # than the rest), and the OSC baseline solves no QP
    _, bench = perfbench
    for w in bench.WORKLOADS.values():
        qp._setup.cache_clear()
        cfg = simulator.default_scenario_config(w.scenario, w.controller)
        simulator.run_scenario(w.scenario, w.controller, load_bundled_model(w.model), cfg)
        assert qp._setup.cache_info().misses == {"kin_singularity": 1, "dyn_payload": 2,
                                                 "osc_payload": 0}[w.name], w.name
