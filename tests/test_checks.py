"""The self-verification suites fail, never pass, on NaN."""

import math

import numpy as np

from armmpc import checks
from armmpc.dynamics import DynamicsDerivatives
from armmpc.qp import KktResiduals, QpSolution


def nan_derivatives(state, qdd):
    n = state.model.n
    return DynamicsDerivatives(*(np.full((n, n), np.nan) for _ in range(5)))


def test_derivative_suites_fail_on_nan(desk_model, monkeypatch):
    monkeypatch.setattr(checks, "dynamics_derivatives", nan_derivatives)
    for run in (checks.run_dynamics_derivative_check, checks.run_identity_check):
        res = run(desk_model, n_states=3)
        assert not res.passed and math.isnan(res.worst), res.line()


def test_qp_suite_fails_on_nan(monkeypatch):
    class NanSolver:
        def solve(self, p, warm_start=None):
            nan = KktResiduals(np.nan, 0.0, 0.0, 0.0)
            return QpSolution(np.full(p.dim, np.nan), "optimal", nan, (), np.empty(0), 1, np.nan)

    monkeypatch.setattr(checks, "QpSolver", NanSolver)
    res = checks.run_qp_check(n_problems=5)
    assert not res.passed and math.isnan(res.worst), res.line()
