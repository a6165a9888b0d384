import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from armmpc import load_bundled_model, qp, simulator
from armmpc.checks import (
    dense_hessian,
    dense_rows,
    lower_band,
    random_qp,
    solve_qp_by_enumeration,
)
from armmpc.qp import (
    INFEASIBLE,
    OPTIMAL,
    QpDataError,
    QpProblem,
    QpSolver,
    _Hessian,
    _hessian,
    _hz,
    _kkt_solve,
    _kkt_start,
    _residuals,
    _values,
    expand_constraints,
    kkt_check,
    regularized_hessian,
)


def lu_hessian(p):
    """H + eps I of p with no factor: every KKT system by the banded LU."""
    return _Hessian(regularized_hessian(p.H), None)


def test_projection_onto_halfspace():
    p = QpProblem(H=np.ones((1, 2)), g=np.zeros(2), Ain=np.array([[1.0, 0.0]]),
                  lin=np.array([1.0]), uin=np.array([np.inf]))
    sol = QpSolver().solve(p)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-9)


def test_unconstrained_matches_linear_solve(rng):
    for _ in range(10):
        d = int(rng.integers(2, 8))
        m = rng.standard_normal((d, d))
        h = m @ m.T + d * np.eye(d)
        g = rng.standard_normal(d)
        sol = QpSolver().solve(QpProblem(H=lower_band(h, d - 1), g=g))
        np.testing.assert_allclose(sol.z_star, np.linalg.solve(h, -g), atol=1e-8)
        assert sol.status == OPTIMAL
        assert sol.active_set == ()


def test_matches_enumeration_oracle(rng):
    solver = QpSolver()
    for i in range(60):
        d = int(rng.integers(2, 7))
        m_in = int(rng.integers(0, 9))
        prob = random_qp(rng, d, m_in, with_eq=bool(rng.integers(0, 2)))
        sol = solver.solve(prob)
        ref, _ = solve_qp_by_enumeration(prob)
        if ref is None:
            assert sol.status != OPTIMAL
            continue
        assert sol.status == OPTIMAL, f"problem {i}"
        np.testing.assert_allclose(sol.z_star, ref, atol=1e-8)


def test_vertex_optimum_with_large_multipliers():
    # problem 189 of run_qp_check(seed=0): a vertex optimum whose multipliers
    # of 1.5e5-3.6e5 magnify the round-off left in the active rows' slacks
    rng = np.random.default_rng(0)
    for _ in range(190):
        d = int(rng.integers(2, 7))
        m_in = int(rng.integers(0, 9))
        prob = random_qp(rng, d, m_in, with_eq=bool(rng.integers(0, 2)))
    sol = QpSolver().solve(prob)
    ref, _ = solve_qp_by_enumeration(prob)
    assert np.abs(sol.multipliers).max() > 1e5
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.z_star, ref, atol=1e-8)
    assert sol.kkt.max() <= 1e-8 * (1 + np.linalg.norm(prob.g))


def test_kkt_residuals_within_contract(rng):
    solver = QpSolver()
    for _ in range(40):
        prob = random_qp(rng, int(rng.integers(2, 7)), int(rng.integers(0, 9)))
        sol = solver.solve(prob)
        if sol.status == OPTIMAL:
            assert sol.kkt.max() <= 1e-8 * (1 + np.linalg.norm(prob.g))


def test_equality_constraints():
    h = np.diag([1.0, 2.0, 3.0])
    g = np.array([1.0, 1.0, 1.0])
    aeq = np.array([[1.0, 1.0, 1.0]])
    beq = np.array([1.0])
    sol = QpSolver().solve(QpProblem(H=lower_band(h, 0), g=g, Ain=aeq, lin=beq, uin=beq))
    assert sol.status == OPTIMAL
    assert abs(aeq @ sol.z_star - beq)[0] < 1e-10
    # KKT by hand: z = H^-1 (A' nu - g), nu from A H^-1 A' nu = b + A H^-1 g
    hinv = np.linalg.inv(h)
    nu = ((beq + aeq @ hinv @ g) / (aeq @ hinv @ aeq.T)).item()
    np.testing.assert_allclose(sol.z_star, hinv @ (aeq.ravel() * nu - g), atol=1e-8)


def test_pinned_bounds_become_equalities():
    lb = np.array([0.5, -np.inf])
    ub = np.array([0.5, np.inf])
    sol = QpSolver().solve(QpProblem(H=np.ones((1, 2)), g=np.array([1.0, 1.0]), lb=lb, ub=ub))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.z_star, [0.5, -1.0], atol=1e-10)


def test_infeasible_detected():
    # x >= 1 and x <= 0 simultaneously
    p = QpProblem(H=np.ones((1, 1)), g=np.zeros(1), lb=np.array([1.0]), ub=np.array([np.inf]),
                  Ain=np.array([[1.0]]), lin=np.array([-np.inf]), uin=np.array([0.0]))
    sol = QpSolver().solve(p)
    assert sol.status == INFEASIBLE


def test_crossed_bounds_rejected():
    with pytest.raises(QpDataError):
        QpProblem(H=np.ones((1, 1)), g=np.zeros(1), lb=np.array([1.0]), ub=np.array([0.0]))


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: a constant Ain, as the kinematic MPC's."""
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("data", [
    {"H": np.array([[np.nan]]), "g": np.zeros(1)},
    {"H": np.array([[1.0, 1.0], [np.inf, 0.0]])},
    {"H": np.ones(2)},
    {"H": np.ones((0, 2))},
    {"H": np.ones((3, 2))},
    {"H": np.ones((1, 3))},
    {"ub": np.array([np.nan, 1.0])},
    {"lb": np.array([0.0, np.nan]), "ub": np.array([1.0, 1.0])},
    {"lb": np.zeros(3)},
    {"ub": np.zeros((2, 1))},
    {"Ain": np.ones((1, 2)), "lin": np.array([np.nan]), "uin": np.array([1.0])},
    {"Ain": np.ones((1, 2)), "lin": np.zeros(2), "uin": np.ones(2)},
    {"Ain": np.ones((2, 2)), "lin": np.zeros(2), "uin": np.ones(1)},
    {"lin": np.zeros(1)},
    {"Ain": np.array([[np.nan, 1.0]]), "lin": np.zeros(1), "uin": np.ones(1)},
    {"Ain": np.array([[1.0, 0.0], [0.0, np.inf]]), "lin": np.zeros(2), "uin": np.ones(2)},
    {"Ain": read_only(np.array([[1.0, np.nan]])), "lin": np.zeros(1), "uin": np.ones(1)},
    {"g": np.array([1.0, np.nan])},
], ids=["H-nan", "H-band-inf", "H-1d", "H-no-rows", "H-past-d-rows", "H-wide", "ub-nan",
        "lb-nan", "lb-long", "ub-column", "lin-nan", "lin-long", "uin-short", "lin-without-Ain",
        "Ain-nan", "Ain-inf", "Ain-read-only-nan", "g-nan"])
def test_nonfinite_rejected(data):
    # NaN and mis-shaped bound vectors are malformed data, not dropped bounds;
    # H is a lower band of 1 to d rows of d finite entries, and g and Ain are
    # finite, a read-only Ain too, whose facts are derived once and kept
    with pytest.raises(QpDataError):
        QpProblem(**{"H": np.ones((1, 2)), "g": np.ones(2), **data})


def test_a_read_only_ain_keeps_its_own_pattern(rng):
    # a read-only Ain that owns its data is taken as constant: its finiteness
    # and nonzeros are derived on its first sight and kept with that array
    # alone. Two such arrays of one shape but other nonzeros keep their own
    # structures, and solve as writable copies of them do; a read-only view,
    # whose base may still change, is not kept
    for _ in range(10):
        p = random_qp(rng, 5, 6)
        sparse = p.Ain.copy()
        sparse[:, 0] = 0.0
        structures = []
        for ain in (p.Ain.copy(), sparse):
            fixed = ain.copy()
            fixed.setflags(write=False)
            probs = [QpProblem(H=p.H, g=p.g, lb=p.lb, ub=p.ub, Ain=a, lin=p.lin, uin=p.uin)
                     for a in (fixed, ain)]
            rows, ref_rows = (expand_constraints(prob) for prob in probs)
            assert all(np.array_equal(x, y) for x, y in zip(rows, ref_rows))
            sol, ref = (QpSolver().solve(prob) for prob in probs)
            assert np.array_equal(sol.z_star, ref.z_star) and sol.active_set == ref.active_set
            structures.append(rows.first)
        assert not np.array_equal(*structures)
    view = np.ones((2, 4))[:, :3]
    view.setflags(write=False)
    assert qp._constant_rows(view) is None


@pytest.mark.parametrize("data", [
    {"lb": np.array([np.inf, -1.0]), "ub": np.array([np.inf, 1.0])},
    {"ub": np.array([-np.inf, 1.0])},
    {"Ain": np.ones((1, 2)), "lin": np.array([np.inf]), "uin": np.array([np.inf])},
    {"Ain": np.ones((1, 2)), "lin": np.array([-np.inf]), "uin": np.array([-np.inf])},
], ids=["lb-plus-inf", "ub-minus-inf", "lin-plus-inf", "uin-minus-inf"])
def test_unsatisfiable_infinite_bound_rejected(data):
    # z >= +inf or z <= -inf holds for no z; it must not be dropped as "no bound"
    with pytest.raises(QpDataError, match="no point satisfies"):
        QpProblem(**{"H": np.ones((1, 2)), "g": np.zeros(2), **data})


@pytest.mark.parametrize("data", [
    {"g": None},
    {"g": np.array(1.0)},
    {"H": np.zeros((0, 0)), "g": np.zeros(0)},
    {"H": None},
], ids=["g-none", "g-0d", "d-zero", "H-none"])
def test_missing_or_empty_objective_rejected(data):
    # g = None used to raise AttributeError, a 0-d g IndexError, and d = 0
    # a bare ValueError from setup
    with pytest.raises(QpDataError, match="H and g"):
        QpProblem(**{"H": np.ones((1, 2)), "g": np.zeros(2), **data})


@pytest.mark.parametrize("warm", [[0.5], [1.0], np.array([0.0]), [True], [[0]]],
                         ids=["half", "float-one", "float-array", "bool", "nested"])
def test_warm_start_of_non_integer_ids_rejected(warm):
    # by kkt_check's rule: [0.5] used to be read as row 0
    p = QpProblem(H=np.ones((1, 2)), g=-np.ones(2), lb=np.zeros(2), ub=np.full(2, 5.0))
    with pytest.raises(ValueError, match="integer row ids"):
        QpSolver().solve(p, warm_start=warm)
    # an empty warm set of any dtype (np.asarray(()) is float) stays a warm start
    for empty in ((), [], np.empty(0)):
        assert QpSolver().solve(p, warm_start=empty).status == OPTIMAL


def test_warm_start_identical_problem(rng):
    solver = QpSolver()
    prob = random_qp(rng, 5, 6)
    cold = solver.solve(prob)
    assert cold.status == OPTIMAL
    warm = solver.solve(prob, warm_start=cold.active_set)
    assert warm.status == OPTIMAL
    assert warm.iterations <= 2
    np.testing.assert_allclose(warm.z_star, cold.z_star, atol=1e-9)


def test_warm_start_wrong_set_still_correct(rng):
    solver = QpSolver()
    prob = random_qp(rng, 4, 6)
    cold = solver.solve(prob)
    warm = solver.solve(prob, warm_start=(0, 1, 2))
    if cold.status == OPTIMAL and warm.status == OPTIMAL:
        np.testing.assert_allclose(warm.z_star, cold.z_star, atol=1e-8)


def test_scaling_invariance(rng):
    prob = random_qp(rng, 4, 5)
    base = QpSolver().solve(prob)
    scaled = QpSolver().solve(QpProblem(H=7.5 * prob.H, g=7.5 * prob.g, lb=prob.lb,
                                        ub=prob.ub, Ain=prob.Ain, lin=prob.lin, uin=prob.uin))
    if base.status == OPTIMAL:
        np.testing.assert_allclose(scaled.z_star, base.z_star, atol=1e-9)


def test_dual_objective_monotone_debug(rng):
    solver = QpSolver()
    for _ in range(20):
        prob = random_qp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)))
        sol = solver.solve(prob)
        history = np.asarray(sol.dual_objective_history)
        assert history.size >= 1 and history[-1] == sol.objective
        # the dual objective never decreases across the iterations
        tol = 1e-7 * (1.0 + np.abs(history).max())
        assert not np.any(np.diff(history) < -tol), history


def test_kkt_check_detects_perturbation(rng):
    prob = random_qp(rng, 4, 4)
    sol = QpSolver().solve(prob)
    if sol.status != OPTIMAL:
        return
    base = kkt_check(prob, sol.z_star, sol.active_set, sol.multipliers)
    assert base.max() <= 1e-8 * (1 + np.linalg.norm(prob.g))
    z_pert = sol.z_star.copy()
    # perturb a coordinate not pinned by an active bound
    z_pert[int(np.argmax(np.abs(sol.z_star)))] += 1e-3
    pert = kkt_check(prob, z_pert, sol.active_set, sol.multipliers)
    assert pert.stationarity >= 1e-4


def test_kkt_check_feasibility_residual():
    p = QpProblem(H=np.ones((1, 2)), g=np.zeros(2), lb=np.array([0.0, 0.0]),
                  ub=np.array([1.0, 1.0]))
    delta = 0.125
    res = kkt_check(p, np.array([-delta, 0.5]))
    assert res.feasibility == pytest.approx(delta)


def test_kkt_check_dual_feasibility():
    # z = 1 on the bound z >= 1 is stationary with multiplier -1, yet the
    # unconstrained minimum z = 2 is feasible: only the sign shows it
    p = QpProblem(H=np.ones((1, 1)), g=np.array([-2.0]), lb=np.array([1.0]),
                  ub=np.array([np.inf]))
    res = kkt_check(p, np.array([1.0]), active_set=(0,), multipliers=(-1.0,))
    assert res.stationarity <= 1e-8
    assert res.feasibility == 0.0 and res.complementarity == 0.0
    assert res.dual_feasibility == pytest.approx(1.0)
    assert res.max() == pytest.approx(1.0)
    # a solve whose bound is active carries a non-negative multiplier
    p.g = np.array([0.0])
    sol = QpSolver().solve(p)
    assert sol.status == OPTIMAL and sol.active_set == (0,)
    assert sol.kkt.dual_feasibility == 0.0


@pytest.mark.parametrize("active_set, multipliers", [
    ((0, 0), (-2.0, 3.0)),
    ((-1,), (1.0,)),
    ((1,), (1.0,)),
    ((0.0,), (1.0,)),
    (((0,),), (1.0,)),
    ((0,), (1.0, 2.0)),
    ((0,), ()),
], ids=["repeated", "negative", "past-the-end", "float", "nested", "extra-multiplier",
        "missing-multiplier"])
def test_kkt_check_rejects_malformed_active_sets(active_set, multipliers):
    # z = 1 on the bound z >= 1 with multiplier 1 is the optimum. A repeated
    # id used to count both multipliers in stationarity but only the last in
    # the sign check, so (-2, 3) passed; a negative id wrapped to another row
    p = QpProblem(H=np.ones((1, 1)), g=np.zeros(1), lb=np.array([1.0]), ub=np.array([np.inf]))
    assert kkt_check(p, np.ones(1), (0,), (1.0,)).max() <= 1e-8
    with pytest.raises(ValueError, match="active|multipliers"):
        kkt_check(p, np.ones(1), active_set, multipliers)


def test_max_iter_returns_best_iterate():
    # a normal problem but with an absurdly low cap via monkeypatching is
    # intrusive; instead verify the field exists and is a sane count
    sol = QpSolver().solve(QpProblem(H=np.ones((1, 3)), g=np.ones(3), lb=-np.ones(3), ub=np.ones(3)))
    assert sol.status == OPTIMAL
    assert sol.iterations >= 0


def test_indefinite_hessian_rejected_with_and_without_warm_start():
    # z_2 is held at its lower bound by the warm active set, where the KKT
    # solve is stationary, feasible and has a positive multiplier; but H is
    # indefinite, so the problem has no minimum and must be refused
    p = QpProblem(H=np.array([[1.0, -1.0]]), g=np.array([0.5, 1.0]),
                  lb=np.array([-np.inf, 0.5]), ub=np.array([np.inf, np.inf]))
    warm = (0,)  # the one canonical row: z_2 >= 0.5
    rows = expand_constraints(p)
    hess = _hessian(p.H)
    assert hess.factor is None
    start = _kkt_start(rows, hess, p.g, np.array(warm))
    accepted = QpSolver()._try_hot_start(p, rows, hess.band, start)
    assert accepted is not None and accepted.multipliers[0] > 0
    with pytest.raises(QpDataError, match="positive definite"):
        QpSolver().solve(p)
    with pytest.raises(QpDataError, match="positive definite"):
        QpSolver().solve(p, warm_start=warm)


def test_dependent_equality_rows_rejected():
    p = QpProblem(H=np.ones((1, 2)), g=np.zeros(2), Ain=np.array([[1.0, 1.0], [2.0, 2.0]]),
                  lin=np.array([1.0, 2.0]), uin=np.array([1.0, 2.0]))
    with pytest.raises(QpDataError, match="linearly dependent"):
        QpSolver().solve(p)


def dense_kkt(p, ids):
    """Reference: z and multipliers of the active rows ids from one dense solve."""
    a, b, _ = dense_rows(p)
    h = dense_hessian(regularized_hessian(p.H))
    a = a[list(ids)]
    d, k = p.dim, len(ids)
    kkt = np.block([[h, a.T], [a, np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-p.g, b[list(ids)]]))
    return sol[:d], -sol[d:]


def assert_matches_dense(p, ids):
    rows = expand_constraints(p)
    z, lam = _kkt_solve(rows, lu_hessian(p), p.g, ids)
    z_ref, lam_ref = dense_kkt(p, ids)
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-9 * np.abs(z_ref).max())
    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-9 * np.abs(lam_ref).max())
    return rows


def stage_qp(rng, n_p):
    """A stage-ordered QP over z = [u_0, x_1, ..., u_np-1, x_np] with two
    inputs and four states per stage: block-diagonal H and bidiagonal
    dynamics rows x_{k+1} - A_k x_k - B_k u_k = r_k."""
    nx, nu = 4, 2
    ns = nx + nu
    d = n_p * ns
    h = np.zeros((d, d))
    aeq = np.zeros((n_p * nx, d))
    for k in range(n_p):
        m = rng.standard_normal((ns, ns))
        h[k * ns:(k + 1) * ns, k * ns:(k + 1) * ns] = m @ m.T + np.eye(ns)
        rows = slice(k * nx, (k + 1) * nx)
        if k:
            aeq[rows, k * ns - nx:k * ns] = -(np.eye(nx) + 0.1 * rng.standard_normal((nx, nx)))
        aeq[rows, k * ns:k * ns + nu] = -rng.standard_normal((nx, nu))
        aeq[rows, k * ns + nu:(k + 1) * ns] = np.eye(nx)
    g, b = rng.standard_normal(d), rng.standard_normal(n_p * nx)
    return QpProblem(H=lower_band(h, ns - 1), g=g, lb=-1.0 - rng.random(d), ub=1.0 + rng.random(d),
                     Ain=aeq, lin=b, uin=b)


@pytest.mark.parametrize("n_p", [1, 3, 10])
def test_banded_kkt_matches_dense_on_stage_qps(rng, n_p):
    for _ in range(5):
        p = stage_qp(rng, n_p)
        rows = expand_constraints(p)
        d = p.dim
        # fix a random quarter of the inputs at a random side of their box
        # (fixing states too could leave a stage's rows without free columns)
        inputs = np.flatnonzero(np.arange(d) % 6 < 2)  # u_k leads each stage
        pick = rng.choice(inputs, size=max(1, inputs.size // 4), replace=False)
        lower = rng.random(pick.size) < 0.5
        bound_ids = np.where(lower, rows.n_eq + pick, rows.n_eq + d + pick)
        ids = list(range(rows.n_eq)) + sorted(bound_ids.tolist())
        assert_matches_dense(p, ids)


def kinematic_style_qp(rng):
    """z = [q_0..q_np], q_0 pinned, banded velocity rows as two-sided Ain,
    and an active set holding the pinned block, two bounds and four Ain rows."""
    n, n_p, dt = 3, 6, 0.1
    d = (n_p + 1) * n
    vel = (np.eye(d, k=n) - np.eye(d))[:-n] / dt
    jac = [rng.standard_normal((2, n)) for _ in range(n_p + 1)]
    h = 1e-2 * vel.T @ vel
    for k, jk in enumerate(jac):
        h[k * n:(k + 1) * n, k * n:(k + 1) * n] += jk.T @ jk + 1e-3 * np.eye(n)
    lb, ub = -np.ones(d), np.ones(d)
    lb[:n] = ub[:n] = 0.2
    p = QpProblem(H=lower_band(h, n), g=rng.standard_normal(d), lb=lb, ub=ub, Ain=vel,
                  lin=-np.full(d - n, 3.0), uin=np.full(d - n, 3.0))
    rows = expand_constraints(p)
    n_free = d - n
    lowers = rows.n_eq + 2 * n_free  # first Ain-lower row
    uppers = lowers + vel.shape[0]
    ids = (list(range(rows.n_eq))  # the pinned block
           + [rows.n_eq + 4, rows.n_eq + n_free + 9]  # a lower and an upper bound
           + [lowers + 1, lowers + 7, uppers + 3, uppers + 12])  # two-sided Ain rows
    assert rows.src[ids[-4:]].min() >= d  # general rows
    return p, ids


def test_banded_kkt_matches_dense_on_kinematic_style_qp(rng):
    assert_matches_dense(*kinematic_style_qp(rng))


def test_banded_kkt_does_not_depend_on_activation_order(rng):
    # the dual loop activates rows in its own order; the same set must give
    # the same solve and reuse the same cached layout
    p, ids = kinematic_style_qp(rng)
    rows = expand_constraints(p)
    h = lu_hessian(p)
    z, lam = _kkt_solve(rows, h, p.g, ids)
    misses = qp._band_layout.cache_info().misses
    z2, lam2 = _kkt_solve(rows, h, p.g, ids[::-1])
    assert qp._band_layout.cache_info().misses == misses
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(lam2, lam[::-1])


def test_singular_hot_start_falls_back_to_cold_path():
    # the same row twice: both copies are active at the optimum, and their
    # KKT system is singular
    p = QpProblem(H=np.ones((1, 2)), g=np.zeros(2), Ain=np.array([[1.0, 1.0], [1.0, 1.0]]),
                  lin=np.array([3.0, 3.0]), uin=np.array([np.inf, np.inf]))
    rows = expand_constraints(p)
    with pytest.raises(LinAlgError):
        _kkt_solve(rows, lu_hessian(p), p.g, [0, 1])
    assert _kkt_start(rows, lu_hessian(p), p.g, [0, 1]) is None
    solver = QpSolver()
    assert solver._try_hot_start(p, rows, regularized_hessian(p.H), None) is None
    sol = solver.solve(p, warm_start=(0, 1))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.z_star, [1.5, 1.5], atol=1e-9)
    assert kkt_check(p, sol.z_star, sol.active_set, sol.multipliers).max() <= 1e-9


def test_residuals_match_row_by_row_reference(rng):
    # the solver's bound and general rows against a per-row loop over rows
    # written out densely
    for _ in range(20):
        prob = random_qp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)),
                         with_eq=bool(rng.integers(0, 2)))
        a, b, n_eq = dense_rows(prob)
        h = regularized_hessian(prob.H)
        dense = dense_hessian(h)
        z = rng.standard_normal(prob.dim)
        ids = rng.choice(b.size, size=int(rng.integers(0, b.size + 1)), replace=False)
        lam = rng.standard_normal(ids.size)
        res = _residuals(expand_constraints(prob), _hz(h, z), prob.g, z, ids, lam)
        grad = dense @ z + prob.g
        lam_in = np.zeros(b.size - n_eq)
        for idx, val in zip(ids, lam):
            grad = grad - val * a[idx]
            if idx >= n_eq:
                lam_in[idx - n_eq] = val
        scale = 1e-12 * (1.0 + np.abs(dense @ z).max() + np.abs(prob.g).max() + np.abs(lam).sum())
        assert abs(res.stationarity - np.abs(grad).max()) <= scale
        if lam_in.size:
            slack = a[n_eq:] @ z - b[n_eq:]
            assert res.complementarity == np.abs(lam_in * slack).max()
            assert res.dual_feasibility == max(0.0, -lam_in.min())


def test_certificate_reads_inactive_rows_through_their_slack_alone(rng):
    # complementarity and dual feasibility are taken over the active
    # inequality rows, as an inactive row's multiplier is zero: rows made
    # active with a zero multiplier change no residual, and a NaN slack of
    # an inactive row still makes the certificate NaN, through feasibility
    for _ in range(20):
        prob = random_qp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)),
                         with_eq=bool(rng.integers(0, 2)))
        rows = expand_constraints(prob)
        z = rng.standard_normal(prob.dim)
        order = rng.permutation(rows.b.size)
        ids, idle = np.split(order, [int(rng.integers(0, rows.b.size))])
        lam = rng.standard_normal(ids.size)
        res = kkt_check(prob, z, ids, lam)
        assert kkt_check(prob, z, order, np.concatenate([lam, np.zeros(idle.size)])) == res
        slack = _values(rows, z) - rows.b
        slack[idle[0]] = np.nan
        nan = _residuals(rows, _hz(regularized_hessian(prob.H), z), prob.g, z, ids, lam, slack)
        assert np.isnan(nan.feasibility) and np.isnan(nan.max())


def test_variable_fixed_twice_is_singular():
    # lower and upper bound of z_1 both active: dependent rows, as in a dense KKT
    p = QpProblem(H=np.ones((1, 2)), g=np.ones(2), lb=np.zeros(2), ub=np.ones(2))
    rows = expand_constraints(p)
    both = [0, 2]
    assert rows.src[both].tolist() == [0, 0] and rows.sign[both].tolist() == [1.0, -1.0]
    with pytest.raises(LinAlgError):
        _kkt_solve(rows, lu_hessian(p), p.g, both)
    assert _kkt_start(rows, lu_hessian(p), p.g, both) is None
    sol = QpSolver().solve(p, warm_start=both)  # falls back to the equality rows alone
    assert sol.status == OPTIMAL and sol.active_set == (0, 1)


@pytest.fixture
def hot_starts(monkeypatch):
    """What each _try_hot_start call returned: None for a rejected warm set."""
    seen = []
    judge = QpSolver._try_hot_start

    def spy(self, *args):
        seen.append(judge(self, *args))
        return seen[-1]

    monkeypatch.setattr(QpSolver, "_try_hot_start", spy)
    return seen


def assert_matches_warm_free_solve(p, sol):
    ref = QpSolver().solve(p)
    assert sol.status == ref.status
    if ref.status != OPTIMAL:
        return False
    np.testing.assert_allclose(sol.z_star, ref.z_star, rtol=0,
                               atol=1e-8 * (1 + np.abs(ref.z_star).max()))
    assert abs(sol.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
    res = kkt_check(p, sol.z_star, sol.active_set, sol.multipliers)
    assert res.dual_feasibility == 0.0
    assert res.max() <= 1e-8 * (1 + np.linalg.norm(p.g))
    return True


@pytest.fixture(scope="module")
def dyn_mpc_qps():
    """(problem, warm start) of each QP of the first 150 ticks of the payload
    move under the dynamic MPC (d = 180), whose hot start is rejected on some
    of them; solved cold, some of the later ones drop rows on their way."""
    recorded = []
    solve_qp = QpSolver.solve

    def record(self, p, warm_start=None):
        recorded.append((p, warm_start))
        return solve_qp(self, p, warm_start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QpSolver, "solve", record)
        cfg = simulator.default_scenario_config("payload_pick_place", "dyn_mpc")
        cfg.max_ticks = 150
        simulator.run_scenario("payload_pick_place", "dyn_mpc", load_bundled_model("rs007n"), cfg)
    return recorded


def test_rejected_hot_start_resumes_to_the_warm_free_optimum(dyn_mpc_qps, hot_starts):
    resumed = 0
    for p, warm in dyn_mpc_qps[1:]:
        sol = QpSolver().solve(p, warm_start=warm)
        if hot_starts[-1] is None:
            resumed += 1
            assert assert_matches_warm_free_solve(p, sol)
    assert len(hot_starts) == len(dyn_mpc_qps) - 1  # one judgement per warm-started solve
    assert resumed >= 3


def dense_certificate(p, sol):
    """max(stationarity, feasibility, complementarity, -least inequality
    multiplier) of sol, in plain numpy from the rows written out densely and
    H + eps I, eps = 1e-9 max(tr H, d) / d, the Hessian the module documents."""
    a, b, n_eq = dense_rows(p)
    d, h = p.dim, dense_hessian(p.H)
    h = h + 1e-9 * max(np.trace(h), d) / d * np.eye(d)
    ids = np.asarray(sol.active_set, dtype=int)
    lam = np.zeros(b.size)
    lam[ids] = sol.multipliers
    slack = a @ sol.z_star - b
    return max(np.abs(h @ sol.z_star + p.g - a.T @ lam).max(), np.abs(slack[:n_eq]).max(),
               -slack[n_eq:].min(), np.abs(lam[n_eq:] * slack[n_eq:]).max(), -lam[n_eq:].min())


def test_cold_dual_paths_carry_an_independent_certificate(dyn_mpc_qps):
    # every recorded QP solved without a warm start, so each row beyond the
    # equality rows enters by a dual step: a cold solve starts from the n_eq
    # equality rows and each further iteration adds a row or drops one
    drops = []
    for p, warm in dyn_mpc_qps:
        cold = QpSolver().solve(p, warm_start=None)
        assert cold.status == OPTIMAL
        assert dense_certificate(p, cold) <= 1e-8 * (1 + np.linalg.norm(p.g))
        n_eq = dense_rows(p)[2]
        added_net = len(cold.active_set) - n_eq
        assert (cold.iterations - 1 - added_net) % 2 == 0
        drops.append((cold.iterations - 1 - added_net) // 2)
        hot = QpSolver().solve(p, warm_start=warm)
        np.testing.assert_allclose(cold.z_star, hot.z_star, rtol=0,
                                   atol=1e-8 * (1 + np.abs(hot.z_star).max()))
    assert p.dim == 180 and max(drops) >= 1 and min(drops) >= 0


def test_warm_set_of_another_problem_drops_negative_multipliers(rng):
    dropped = optimal = 0
    for _ in range(20):
        other, p = stage_qp(rng, 3), stage_qp(rng, 3)
        warm = QpSolver().solve(other).active_set
        rows = expand_constraints(p)
        ids, _, lam = _kkt_start(rows, lu_hessian(p), p.g, np.array(warm))
        dropped += np.any(lam[ids >= rows.n_eq] < 0)
        optimal += assert_matches_warm_free_solve(p, QpSolver().solve(p, warm_start=warm))
    assert dropped >= 5 and optimal >= 5


def test_optimal_warm_set_of_equality_rows_alone_is_accepted(hot_starts):
    # no inequality row is active at the optimum, so the warm set holds only
    # the equality rows; its one KKT solve is the optimum and must be accepted
    p = QpProblem(H=np.array([[1.0, 2.0, 3.0]]), g=np.ones(3), lb=-np.full(3, 10.0),
                  ub=np.full(3, 10.0), Ain=np.array([[1.0, 1.0, 1.0]]), lin=np.ones(1),
                  uin=np.ones(1))
    cold = QpSolver().solve(p)
    assert cold.status == OPTIMAL and cold.active_set == (0,)
    warm = QpSolver().solve(p, warm_start=cold.active_set)
    assert hot_starts == [warm]
    assert warm.iterations == 1 and warm.active_set == (0,)
    np.testing.assert_array_equal(warm.z_star, cold.z_star)


def dense_residuals(p, z, ids, lam):
    """KktResiduals fields from the rows written out densely, row by row."""
    a, b, n_eq = dense_rows(p)
    ids, lam = np.asarray(ids, dtype=int), np.asarray(lam, dtype=float)
    slack = a @ z - b
    lam_in = np.zeros(b.size - n_eq)
    lam_in[ids[ids >= n_eq] - n_eq] = lam[ids >= n_eq]
    grad = dense_hessian(regularized_hessian(p.H)) @ z + p.g - a[ids].T @ lam
    return (np.abs(grad).max(),
            max(np.abs(slack[:n_eq]).max(initial=0.0), (-slack[n_eq:]).max(initial=0.0)),
            np.abs(lam_in * slack[n_eq:]).max(initial=0.0),
            max(0.0, -lam_in.min(initial=0.0)))


BOUND_KINDS = ("free", "lower", "upper", "box", "pinned")
ROW_KINDS = ("pinned", "two-sided", "lower", "upper")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bound_and_general_rows_match_the_dense_oracle(data):
    # bounds that are finite, infinite or pinned, and Ain rows that are
    # pinned or one- or two-sided: the solver's objective against active-set
    # enumeration over dense rows, and kkt_check against dense residuals
    d = data.draw(st.integers(1, 6), label="d")
    bounds = np.array(data.draw(st.lists(st.sampled_from(BOUND_KINDS), min_size=d, max_size=d)))
    general = np.array(data.draw(st.lists(st.sampled_from(ROW_KINDS), max_size=2)), dtype=str)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    half = rng.standard_normal((d, d))
    lo = rng.uniform(-1.5, 0.5, d)
    hi = lo + rng.uniform(0.1, 2.0, d)
    lb = np.where(np.isin(bounds, ("lower", "box", "pinned")), lo, -np.inf)
    ub = np.where(np.isin(bounds, ("upper", "box")), hi, np.inf)
    ub[bounds == "pinned"] = lo[bounds == "pinned"]
    mid, width = rng.uniform(-1.0, 1.0, len(general)), rng.uniform(0.2, 2.0, len(general))
    lin = np.where(np.isin(general, ("two-sided", "lower")), mid - width, -np.inf)
    uin = np.where(np.isin(general, ("two-sided", "upper")), mid + width, np.inf)
    pinned = general == "pinned"
    lin[pinned] = uin[pinned] = mid[pinned]
    ain = rng.standard_normal((general.size, d)) if general.size else None
    p = QpProblem(H=lower_band(half @ half.T + 0.1 * np.eye(d), d - 1),
                  g=3.0 * rng.standard_normal(d), lb=lb,
                  ub=ub, Ain=ain, lin=lin if general.size else None,
                  uin=uin if general.size else None)

    ref, ref_objective = solve_qp_by_enumeration(p)
    try:
        sol = QpSolver().solve(p)
    except QpDataError:  # more equality rows than variables
        assert ref is None and dense_rows(p)[2] > d
        return
    if ref is None:
        assert sol.status != OPTIMAL
    else:
        assert sol.status == OPTIMAL
        assert abs(sol.objective - ref_objective) <= 1e-9 * (1 + abs(ref_objective))
    n_rows = dense_rows(p)[1].size
    ids = rng.choice(n_rows, size=int(rng.integers(0, n_rows + 1)), replace=False)
    for z, active, lam in ((sol.z_star, sol.active_set, sol.multipliers),
                           (rng.standard_normal(d), ids, rng.standard_normal(ids.size))):
        res = kkt_check(p, z, active, lam)
        ref_res = dense_residuals(p, z, active, lam)
        scale = 1e-12 * (1 + np.abs(z).max() + np.abs(p.g).max() + np.abs(lam).sum())
        for got, want in zip((res.stationarity, res.feasibility, res.complementarity,
                              res.dual_feasibility), ref_res):
            assert abs(got - want) <= scale * (1 + abs(want))


@pytest.mark.parametrize("absent", [("lb",), ("ub",), ("lb", "ub"), ("Ain",),
                                    ("lb", "ub", "Ain")], ids="-".join)
def test_absent_inputs_are_their_explicit_form(rng, absent):
    # an absent bound is +-inf and absent general rows a (0, d) Ain: the
    # same canonical rows, solution and certificate, bit for bit
    d = 5
    half = rng.standard_normal((d, d))
    explicit = dict(H=lower_band(half @ half.T + 0.1 * np.eye(d), d - 1),
                    g=3.0 * rng.standard_normal(d), lb=np.full(d, -np.inf),
                    ub=np.full(d, np.inf), Ain=np.zeros((0, d)), lin=np.zeros(0),
                    uin=np.zeros(0))
    if "lb" not in absent:
        explicit["lb"] = np.array([-0.2, -np.inf, -1.0, -np.inf, 0.1])
    if "ub" not in absent:
        explicit["ub"] = np.array([0.3, 0.5, np.inf, np.inf, 0.1])
    if "Ain" not in absent:
        explicit.update(Ain=rng.standard_normal((2, d)), lin=np.array([-0.5, 0.2]),
                        uin=np.array([0.5, 0.2]))
    implicit = {name: value for name, value in explicit.items()
                if name not in absent + (("lin", "uin") if "Ain" in absent else ())}
    problems = QpProblem(**explicit), QpProblem(**implicit)
    for name in ("lb", "ub", "Ain", "lin", "uin"):
        np.testing.assert_array_equal(getattr(problems[1], name), getattr(problems[0], name))
        assert getattr(problems[1], name).shape == getattr(problems[0], name).shape
    rows = [expand_constraints(p) for p in problems]
    for got, want in zip(rows[1], rows[0]):
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want
    solutions = [QpSolver().solve(p) for p in problems]
    assert solutions[1].status == solutions[0].status == OPTIMAL
    np.testing.assert_array_equal(solutions[1].z_star, solutions[0].z_star)
    np.testing.assert_array_equal(solutions[1].multipliers, solutions[0].multipliers)
    assert solutions[1].active_set == solutions[0].active_set
    assert solutions[1].objective == solutions[0].objective
    assert solutions[1].kkt == solutions[0].kkt
    sol = solutions[0]
    assert (kkt_check(problems[1], sol.z_star, sol.active_set, sol.multipliers)
            == kkt_check(problems[0], sol.z_star, sol.active_set, sol.multipliers))


def test_far_off_diagonal_hessian_entry_is_kept(rng):
    # a tridiagonal H is a band of half-width 1; one more entry couples the
    # first and last variables, so that H is a full-width band. Solved after
    # the tridiagonal problem with its active set as the warm start, on the
    # cached structure of their one pattern, the coupled problem must see
    # that entry
    d = 6
    tri = np.diag(np.full(d, 2.0)) - 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
    coupled = tri.copy()
    coupled[0, -1] = coupled[-1, 0] = 0.9
    bands = lower_band(tri, 1), lower_band(coupled, d - 1)
    for band, width in zip(bands, (1, d - 1)):
        assert _hessian(band).factor.shape[0] == width + 1
    g = 3.0 * rng.standard_normal(d)
    aeq = np.zeros((1, d))
    aeq[0, :2] = 1.0
    warm, solver = None, QpSolver()
    for h in bands:
        p = QpProblem(H=h, g=g, lb=np.full(d, -0.3), ub=np.full(d, np.inf), Ain=aeq,
                      lin=np.array([0.2]), uin=np.array([0.2]))
        sol = solver.solve(p, warm_start=warm)
        ref, ref_objective = solve_qp_by_enumeration(p)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.z_star, ref, atol=1e-9)
        assert abs(sol.objective - ref_objective) <= 1e-9 * (1 + abs(ref_objective))
        warm = sol.active_set
    assert_matches_dense(p, list(warm))


@pytest.mark.parametrize("field", ["stationarity", "feasibility", "complementarity",
                                   "dual_feasibility"])
def test_kkt_residuals_max_keeps_a_nan(field):
    # Python's max drops a NaN anywhere but in the first place
    values = dict(stationarity=1e-12, feasibility=0.0, complementarity=0.0, dual_feasibility=0.0)
    values[field] = np.nan
    assert np.isnan(qp.KktResiduals(**values).max())


def test_nan_kkt_solve_is_never_optimal(monkeypatch):
    # every residual test fails on a NaN, so a NaN iterate is never optimal
    p = QpProblem(H=np.ones((1, 2)), g=-np.ones(2), lb=np.zeros(2), ub=np.full(2, 5.0))
    warm = QpSolver().solve(p).active_set
    monkeypatch.setattr(qp, "_kkt_solve", lambda rows, hess, g, ids: (
        np.full(g.size, np.nan), np.full(len(ids), np.nan)))
    for warm_start in (warm, None):
        sol = QpSolver().solve(p, warm_start=warm_start)
        assert sol.status != OPTIMAL


@pytest.fixture(scope="module")
def kin_mpc_qps():
    """(problem, warm start) of each QP of the first 100 ticks of the
    singularity pass under the kinematic MPC (d = 60), recorded as solved."""
    recorded = []
    solve_qp = QpSolver.solve

    def record(self, p, warm_start=None):
        recorded.append((p, warm_start))
        return solve_qp(self, p, warm_start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QpSolver, "solve", record)
        cfg = simulator.default_scenario_config("singularity_pass", "kin_mpc")
        cfg.max_ticks = 100
        simulator.run_scenario("singularity_pass", "kin_mpc", load_bundled_model("rs020n"), cfg)
    return recorded


def test_empty_working_set_back_solve_matches_banded_kkt(kin_mpc_qps):
    # every recorded kinematic MPC QP starts from an empty working set, whose
    # KKT system is H + eps I: the back-solve on its band factor agrees with
    # the banded KKT solve (forced by passing no factor), and every solve is
    # optimal and certified at the solver's own threshold
    for p, warm in kin_mpc_qps:
        rows, hess = expand_constraints(p), _hessian(p.H)
        assert rows.n_eq == 0 and not warm and hess.factor is not None
        z, lam = _kkt_solve(rows, hess, p.g, [])
        z_band, lam_band = _kkt_solve(rows, hess._replace(factor=None), p.g, [])
        assert lam.shape == lam_band.shape == (0,)
        assert np.linalg.norm(z - z_band) <= 1e-10 * np.linalg.norm(z_band)
        sol = QpSolver().solve(p, warm_start=warm)
        threshold = 1e-8 * (1.0 + np.linalg.norm(p.g))
        assert sol.status == OPTIMAL
        assert kkt_check(p, sol.z_star, sol.active_set, sol.multipliers).max() <= threshold


def fresh_solve(p, warm_start=None):
    """p solved after qp._setup's cache is cleared, so on a structure set up afresh."""
    qp._setup.cache_clear()
    return QpSolver().solve(p, warm_start=warm_start)


@pytest.mark.parametrize("recorded", ["kin_mpc_qps", "dyn_mpc_qps"])
def test_cached_structure_matches_a_fresh_setup(request, hot_starts, recorded):
    # over a run, every problem's rows come from the cached structure of its
    # pattern; a solve after cache_clear() sets its pattern up afresh. On
    # accepted hot starts the two agree bit for bit
    qp._setup.cache_clear()
    solver, accepted = QpSolver(), []
    for p, warm in request.getfixturevalue(recorded):
        judged = len(hot_starts)
        sol = solver.solve(p, warm_start=warm)
        if hot_starts[judged:] not in ([], [None]):
            accepted.append((p, warm, sol))
    # the dynamic MPC's run starts at rest, where its stage rows' velocity
    # part holds exact zeros, so its first Ain is sparser than the rest: two
    # patterns, each set up once. The kinematic MPC's QP has no step-0 block,
    # where its zeros sat, so its one pattern is set up once
    assert qp._setup.cache_info().misses == {"kin_mpc_qps": 1, "dyn_mpc_qps": 2}[recorded]
    assert len(accepted) >= 90
    for p, warm, sol in accepted:
        ref = fresh_solve(p, warm)
        assert hot_starts[-1] is not None and sol.status == ref.status == OPTIMAL
        np.testing.assert_array_equal(sol.z_star, ref.z_star)
        np.testing.assert_array_equal(sol.multipliers, ref.multipliers)
        assert sol.active_set == ref.active_set


def test_one_regularization_for_the_solver_and_the_certificate(kin_mpc_qps, dyn_mpc_qps,
                                                               monkeypatch):
    # the solver's band of H + eps I is regularized_hessian's bit for bit,
    # which kkt_check and the certificates read; both take eps from
    # qp._regularization, so scaling eps there moves both
    problems = [p for p, _ in kin_mpc_qps[:3] + dyn_mpc_qps[:3]]
    unscaled = [regularized_hessian(p.H) for p in problems]
    regularization = qp._regularization
    for scale in (1.0, 10.0):
        monkeypatch.setattr(qp, "_regularization", lambda h: scale * regularization(h))
        for p, base in zip(problems, unscaled):
            want = regularized_hessian(p.H)
            np.testing.assert_array_equal(_hessian(p.H).band, want)
            np.testing.assert_array_equal(want[1:], base[1:])
            np.testing.assert_allclose(want[0] - base[0], (scale - 1) * regularization(p.H),
                                       rtol=1e-6)


def test_each_new_pattern_is_set_up_once(rng):
    # a pinned or infinite bound or a new zero of Ain is a new pattern: set
    # up once, when it first appears, so its active set names its own rows,
    # never stale ones; a pattern seen before is not set up again. A wider
    # band of H is no new pattern: the structure holds nothing of H
    d = 5
    half = rng.standard_normal((d, d))
    tri = np.diag(np.full(d, 3.0)) + 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
    base = dict(H=lower_band(tri, 1), g=3.0 * rng.standard_normal(d), lb=-np.full(d, 0.2),
                ub=np.full(d, 0.3), Ain=half[:2], lin=-np.ones(2), uin=np.ones(2))
    pinned, infinite, coupled, sparser = ({key: val.copy() for key, val in base.items()}
                                          for _ in range(4))
    pinned["lb"][1] = pinned["ub"][1] = 0.1
    infinite["ub"][3] = np.inf
    tri[0, -1] = tri[-1, 0] = 0.4
    coupled["H"] = lower_band(tri, d - 1)
    sparser["Ain"][0, 2] = 0.0
    qp._setup.cache_clear()
    solver, warm, solved = QpSolver(), None, []
    for data, fresh in ((base, True), (pinned, True), (base, False), (coupled, False),
                        (infinite, True), (sparser, True), (base, False)):
        p = QpProblem(**data)
        before = qp._setup.cache_info().misses
        sol = solver.solve(p, warm_start=warm)
        assert qp._setup.cache_info().misses - before == fresh
        solved.append((p, sol))
        warm = sol.active_set
    for p, sol in solved:
        ref = fresh_solve(p)
        assert sol.status == ref.status == OPTIMAL
        np.testing.assert_allclose(sol.z_star, ref.z_star, rtol=0, atol=1e-9)
        assert kkt_check(p, sol.z_star, sol.active_set, sol.multipliers).max() <= 1e-9


def two_patterns(rng):
    """Two problems of d = 4 whose patterns differ in one pinned bound."""
    half = rng.standard_normal((4, 4))
    data = dict(H=lower_band(half @ half.T + np.eye(4), 3), g=rng.standard_normal(4),
                lb=-np.ones(4), ub=np.ones(4), Ain=half[:1], lin=-np.ones(1), uin=np.ones(1))
    pinned = {**data, "lb": np.array([-1.0, 0.5, -1.0, -1.0]),
              "ub": np.array([1.0, 0.5, 1.0, 1.0])}
    return QpProblem(**data), QpProblem(**pinned)


def test_alternating_patterns_are_set_up_once_each(rng):
    # one solver switching between two patterns on every solve sets each up
    # once; the solves after that fill in the cached structures
    problems = two_patterns(rng)
    qp._setup.cache_clear()
    solver = QpSolver()
    for p in problems * 3:
        assert solver.solve(p).status == OPTIMAL
    assert qp._setup.cache_info().misses == 2


def test_solvers_share_one_structure(rng, monkeypatch):
    # the structure of a pattern is one object, whichever solver asks
    built = []
    setup = qp._setup
    monkeypatch.setattr(qp, "_setup", lambda *key: built.append(setup(*key)) or built[-1])
    p, _ = two_patterns(rng)
    q = QpProblem(H=p.H, g=-p.g, lb=2.0 * p.lb, ub=2.0 * p.ub, Ain=p.Ain, lin=p.lin, uin=p.uin)
    for problem in (p, q):
        assert QpSolver().solve(problem).status == OPTIMAL
    assert len(built) == 2 and built[0] is built[1]


def test_solver_holds_no_state(rng):
    solver = QpSolver()
    assert vars(solver) == {}
    for p in two_patterns(rng):
        solver.solve(p)
    assert vars(solver) == {}


def test_band_round_trips_through_the_dense_hessian(rng):
    # checks' two conversions: a dense symmetric H to its full-width band and
    # back, and random_qp's band to a dense H and back
    for _ in range(20):
        d = int(rng.integers(1, 7))
        half = rng.standard_normal((d, d))
        h = half + half.T
        np.testing.assert_array_equal(dense_hessian(lower_band(h, d - 1)), h)
        p = random_qp(rng, max(d, 2), int(rng.integers(0, 9)))
        dense = dense_hessian(p.H)
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(lower_band(dense, p.dim - 1), p.H)


def kkt_bandwidth(p, ids):
    """(true, laid out): the largest |i - j| over the nonzeros of the KKT
    matrix that _kkt_solve factors for the rows ids, written out densely in
    _band_layout's order (H and the active general rows, each fixed
    variable's row and column emptied but for a unit diagonal), and the
    width of that layout."""
    rows, d = expand_constraints(p), p.dim
    ids = np.asarray(ids, dtype=np.intp)
    src = rows.src[ids]
    fixed = src[src < d]
    base = rows.src[np.sort(ids[src >= d])] - d
    band = qp._band_layout(p.H.shape[0] - 1, d, rows.first[base].tobytes(),
                           rows.last[base].tobytes())
    kkt = np.zeros((d + base.size,) * 2)
    kkt[np.ix_(band.var_pos, band.var_pos)] = dense_hessian(p.H)
    kkt[np.ix_(band.row_pos, band.var_pos)] = p.Ain[base]
    kkt[np.ix_(band.var_pos, band.row_pos)] = p.Ain[base].T
    at = band.var_pos[fixed]
    kkt[at] = 0.0
    kkt[:, at] = 0.0
    kkt[at, at] = 1.0
    i, j = np.nonzero(kkt)
    return int(np.abs(i - j).max()), band.width


@pytest.mark.parametrize("recorded, widths", [("dyn_mpc_qps", {5, 31}), ("kin_mpc_qps", {12, 27})])
def test_band_layout_width_is_the_kkt_matrix_bandwidth(request, recorded, widths):
    # over each recorded run, the warm active sets (the previous ticks'
    # active sets, their active bounds fixing variables) and, on the
    # kinematic QPs, which never hold an active row, also every Ain row
    # active at once: the width the band is factored at is the true width,
    # never wider. Each stage row sits before the middle of its span: the
    # dynamic MPC's band is 31 wide, the kinematic one 27 with all its rows
    # active; with no active row, as on the first tick's empty warm set, it
    # is H's own band
    seen = set()
    for p, warm in request.getfixturevalue(recorded):
        rows = expand_constraints(p)
        sets = [warm or []]
        if recorded == "kin_mpc_qps":
            sets.append(np.flatnonzero(rows.src >= p.dim)[:p.Ain.shape[0]])  # the Ain lowers
        for ids in sets:
            true, laid_out = kkt_bandwidth(p, ids)
            assert true == laid_out
            seen.add(laid_out)
    assert seen == widths


@pytest.mark.parametrize("n_p", [1, 3, 10])
def test_band_layout_width_is_the_kkt_matrix_bandwidth_on_stage_qps(rng, n_p):
    # the dynamics rows alone give the true width; fixing inputs may empty
    # the end of a row's span, and the layout, cached by the spans alone,
    # does not narrow for it, but its band still holds every entry
    for _ in range(5):
        p = stage_qp(rng, n_p)
        rows = expand_constraints(p)
        dynamics = list(range(rows.n_eq))
        true, laid_out = kkt_bandwidth(p, dynamics)
        assert true == laid_out
        inputs = np.flatnonzero(np.arange(p.dim) % 6 < 2)
        pick = rng.choice(inputs, size=rng.integers(1, inputs.size + 1), replace=False)
        bounds = np.where(rng.random(pick.size) < 0.5, rows.n_eq + pick, rows.n_eq + p.dim + pick)
        true_fixed, same = kkt_bandwidth(p, dynamics + sorted(bounds.tolist()))
        assert same == laid_out and true_fixed <= laid_out
