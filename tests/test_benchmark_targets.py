"""Every armmpc name the benchmark under perfbench/ instruments still resolves.

The benchmark wraps methods through the class's own __dict__ and functions
as module attributes, so moving a traced method into a base class or a
traced function out of its module breaks its --trace 1 runs and timed entry
points. The benchmark's files are only imported here, never changed.
"""

import importlib
from pathlib import Path

import pytest

from armmpc import qp

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
