"""Strictly convex QP solver (dual active-set, Goldfarb-Idnani family).

Solves
    min  0.5 z' H z + g' z
    s.t. Aeq z = beq,  lb <= z <= ub,  lin <= Ain z <= uin

H must be symmetric; a fixed diagonal regularization of 1e-9 * trace(H)/d is
always added before factorization so the solver sees a strictly convex
problem even when the caller's Hessian is only semidefinite.

The solver starts from the unconstrained minimum, activates all equality
rows in one batched KKT step, then repeatedly adds the most violated
inequality, taking dual steps and dropping blocking constraints as in the
classical dual method; the dual objective is nondecreasing across
iterations. After convergence the iterate is polished by one exact KKT
solve on the final active set whenever the residuals ask for it. A warm
active set is first tried by one such solve (the hot start) and kept when
it is optimal.

Every one of those KKT systems goes through one banded LU (LAPACK dgbsv,
partial pivoting). Active bound rows, pinned bounds included, become fixed
variables: their KKT row and column are replaced by a unit diagonal, the
fixed values move to the right-hand side, and each bound's multiplier is
read back from the stationarity residual. The other active rows keep a
multiplier, placed right after the last variable the row touches, with the
variables in their natural order. A problem whose variables are ordered by
stage (the MPC QPs) then gives a band whose width does not grow with the
horizon; a dense problem is a band of full width. A singular system
rejects a hot start, keeps the unpolished iterate, and, for the equality
rows alone, means they are linearly dependent: a QpDataError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.lapack import dgbsv

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_VIOLATION_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class QpDataError(ValueError):
    """Problem data is malformed (shapes, non-finite entries, crossed bounds)."""


def regularized_hessian(h: np.ndarray) -> np.ndarray:
    """The Hessian the solver actually optimizes: H + eps*I, eps = 1e-9 tr(H)/d."""
    h = np.asarray(h, dtype=float)
    d = h.shape[0]
    eps = 1e-9 * max(np.trace(h), d) / d
    return 0.5 * (h + h.T) + eps * np.eye(d)


@dataclass
class QpProblem:
    """Strictly convex QP with equalities, bounds, and two-sided inequalities."""

    H: np.ndarray
    g: np.ndarray
    Aeq: np.ndarray | None = None
    beq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    Ain: np.ndarray | None = None
    lin: np.ndarray | None = None
    uin: np.ndarray | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        d = self.g.shape[0]
        if self.H.shape != (d, d):
            raise QpDataError(f"H must be ({d}, {d}), got {self.H.shape}")
        if not np.all(np.isfinite(self.H)) or not np.all(np.isfinite(self.g)):
            raise QpDataError("H and g must be finite")
        if np.abs(self.H - self.H.T).max(initial=0.0) > 1e-8 * (1 + np.abs(self.H).max()):
            raise QpDataError("H must be symmetric")
        for name in ("Aeq", "beq", "lb", "ub", "Ain", "lin", "uin"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.asarray(val, dtype=float))
        if (self.Aeq is None) != (self.beq is None):
            raise QpDataError("Aeq and beq must be given together")
        if self.Aeq is not None:
            if self.Aeq.ndim != 2 or self.Aeq.shape[1] != d:
                raise QpDataError(f"Aeq must have {d} columns")
            if self.beq.shape != (self.Aeq.shape[0],):
                raise QpDataError("beq length must match Aeq rows")
            if not (np.all(np.isfinite(self.Aeq)) and np.all(np.isfinite(self.beq))):
                raise QpDataError("equality data must be finite")
        for lo, hi in ((self.lb, self.ub), (self.lin, self.uin)):
            if lo is not None and hi is not None:
                both = np.isfinite(lo) & np.isfinite(hi)
                if np.any(lo[both] > hi[both] + 1e-12):
                    raise QpDataError("lower bound exceeds upper bound")
        if self.Ain is not None:
            if self.Ain.ndim != 2 or self.Ain.shape[1] != d:
                raise QpDataError(f"Ain must have {d} columns")
            if not np.all(np.isfinite(self.Ain)):
                raise QpDataError("Ain must be finite")
            if self.lin is None or self.uin is None:
                raise QpDataError("Ain requires lin and uin")

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    feasibility: float
    complementarity: float
    dual_feasibility: float  # max(0, -min multiplier on active inequality rows)

    def max(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity,
                   self.dual_feasibility)


@dataclass
class QpSolution:
    z_star: np.ndarray
    status: str
    kkt: KktResiduals
    active_set: tuple[int, ...]
    multipliers: np.ndarray
    iterations: int
    objective: float
    dual_objective_history: list[float] = field(default_factory=list)


@dataclass
class _Rows:
    """Canonical one-sided form: eq rows a'z = b, then ineq rows a'z >= b.

    a and b stack all rows in active-set index order; a_eq/a_in and
    b_eq/b_in are views of their two parts. bound_var holds, for each row
    that comes from a bound (a = +-e_i), its variable i, and -1 for the
    general rows.
    """

    a: np.ndarray
    b: np.ndarray
    n_eq: int
    bound_var: np.ndarray

    @property
    def a_eq(self) -> np.ndarray:
        return self.a[:self.n_eq]

    @property
    def b_eq(self) -> np.ndarray:
        return self.b[:self.n_eq]

    @property
    def a_in(self) -> np.ndarray:
        return self.a[self.n_eq:]

    @property
    def b_in(self) -> np.ndarray:
        return self.b[self.n_eq:]

    @property
    def n_in(self) -> int:
        return self.b.shape[0] - self.n_eq


def expand_constraints(p: QpProblem) -> _Rows:
    """Expand a problem into canonical rows with a stable ordering.

    Order: Aeq rows, pinned bounds (lb == ub), pinned Ain rows; then bound
    lowers, bound uppers, Ain lowers, Ain uppers (each skipping infinities
    and pins). Active-set indices refer to this ordering.
    """
    d = p.dim
    every = np.arange(d)
    # blocks of (values, general rows or None, bound variables, bound sign)
    eq, ineq = [], []
    pinned_bounds = np.zeros(d, dtype=bool)
    if p.Aeq is not None:
        eq.append((p.beq, p.Aeq, None, 0.0))
    if p.lb is not None and p.ub is not None:
        pinned_bounds = np.isfinite(p.lb) & (p.lb == p.ub)
        eq.append((p.lb[pinned_bounds], None, every[pinned_bounds], 1.0))
    if p.Ain is not None:
        pinned_rows = np.isfinite(p.lin) & (p.lin == p.uin)
        eq.append((p.lin[pinned_rows], p.Ain[pinned_rows], None, 0.0))
    if p.lb is not None:
        keep = np.isfinite(p.lb) & ~pinned_bounds
        ineq.append((p.lb[keep], None, every[keep], 1.0))
    if p.ub is not None:
        keep = np.isfinite(p.ub) & ~pinned_bounds
        ineq.append((-p.ub[keep], None, every[keep], -1.0))
    if p.Ain is not None:
        keep = np.isfinite(p.lin) & ~pinned_rows
        ineq.append((p.lin[keep], p.Ain[keep], None, 0.0))
        keep = np.isfinite(p.uin) & ~pinned_rows
        ineq.append((-p.uin[keep], -p.Ain[keep], None, 0.0))
    blocks = eq + ineq
    b = np.concatenate([values for values, _, _, _ in blocks]) if blocks else np.empty(0)
    a = np.zeros((b.size, d))
    bound_var = np.full(b.size, -1)
    start = 0
    for values, general, var, sign in blocks:
        stop = start + values.size
        if general is None:
            a[np.arange(start, stop), var] = sign
            bound_var[start:stop] = var
        else:
            a[start:stop] = general
        start = stop
    return _Rows(a=a, b=b, n_eq=sum(values.size for values, _, _, _ in eq),
                 bound_var=bound_var)


class _Band(NamedTuple):
    """Where the variables and the general active rows sit in the banded KKT.

    h_take gathers H's lower band twice (flat indices into H) and h_put
    scatters it below and above the diagonal of dgbsv's band storage,
    transposed (flat indices into it); a_take/a_put do the same for the
    general rows.
    """

    var_pos: np.ndarray  # KKT position of each variable
    row_pos: np.ndarray  # KKT position of each general row
    width: int  # half-bandwidth of the KKT matrix in this order
    h_take: np.ndarray
    h_put: np.ndarray
    a_take: np.ndarray
    a_put: np.ndarray


def _band_order(h: np.ndarray, a_gen: np.ndarray) -> _Band:
    """Interleaved KKT order of the variables and the general active rows.

    Variables keep their natural order; each row of a_gen is placed right
    after the last variable it touches (rows with the same last variable
    keep their given order). The half-bandwidth of [[h, a_gen'], [a_gen, 0]]
    in that order is read off the full nonzero pattern, so it does not
    depend on which variables are fixed. The layout depends only on that
    pattern and is cached by it: a controller's QPs share one pattern for
    H, and their general active rows come in few patterns (at most two
    layouts per closed-loop run of either MPC, one of them the cold path's
    equality rows), and a rebuild would add 25-70% to each KKT solve.
    """
    nz = a_gen != 0
    h_first = np.argmax(h != 0, axis=1)  # a regularized H has a nonzero diagonal
    first = np.argmax(nz, axis=1)
    last = h.shape[0] - 1 - np.argmax(nz[:, ::-1], axis=1)
    return _band_layout(h_first.tobytes(), first.tobytes(), last.tobytes())


@lru_cache(maxsize=4)  # two controllers' layouts
def _band_layout(h_first: bytes, first: bytes, last: bytes) -> _Band:
    h_first, first, last = (np.frombuffer(x, dtype=np.intp) for x in (h_first, first, last))
    d = h_first.size
    m = first.size
    order = np.argsort(last, kind="stable")
    last_sorted = last[order]
    var_pos = np.arange(d) + np.searchsorted(last_sorted, np.arange(d))
    row_pos = np.empty(m, dtype=np.intp)
    row_pos[order] = last_sorted + 1 + np.arange(m)
    # rows sit after their last variable, so their first one is the far end
    width = max(int((var_pos - var_pos[h_first]).max(initial=0)),
                int((row_pos - var_pos[first]).max(initial=0)))

    # band storage entry (i, j) sits at ab[2w + i - j, j], flat j*(3w+1) + 2w + i - j
    # of its transpose; each row's entries are taken over its nonzero span,
    # clipped indices repeating an entry where a span is shorter than the longest
    def flat(i, j):
        return j * 3 * width + i + 2 * width

    at = np.arange(d)[:, None]
    cols = np.maximum(at - np.arange(int((at[:, 0] - h_first).max(initial=0)) + 1),
                      h_first[:, None])
    i, j = var_pos[at], var_pos[cols]
    span = int((last - first).max(initial=0))
    a_cols = np.minimum(first[:, None] + np.arange(span + 1), last[:, None])
    r, c = row_pos[:, None], var_pos[a_cols]
    h_take = (at * d + cols).ravel()
    a_take = (np.arange(m)[:, None] * d + a_cols).ravel()
    band = _Band(var_pos, row_pos, width,
                 np.concatenate([h_take, h_take]),
                 np.concatenate([flat(i, j).ravel(), flat(j, i).ravel()]),
                 np.concatenate([a_take, a_take]),
                 np.concatenate([flat(r, c).ravel(), flat(c, r).ravel()]))
    for arr in band:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)  # every caller shares the cached layout
    return band


def _kkt_solve(rows: _Rows, h: np.ndarray, g: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 0.5 z'hz + g'z with the rows ids held at equality.

    Bound rows among ids fix their variable; the remaining rows enter a
    banded KKT system in the order of _band_order, factored by one dgbsv.
    Returns z and the multipliers aligned with ids (a'z >= b convention:
    h z + g = sum lam_i a_i). Raises LinAlgError when the system is
    singular, which includes a variable fixed by two rows.
    """
    d = g.shape[0]
    ids = np.asarray(ids, dtype=np.intp)
    var = rows.bound_var[ids]
    bound = var >= 0
    fixed = var[bound]
    if np.bincount(fixed, minlength=1).max() > 1:
        raise LinAlgError("a variable is fixed by two active rows")
    sign = rows.a[ids[bound], fixed]
    z_fixed = np.zeros(d)
    z_fixed[fixed] = sign * rows.b[ids[bound]]
    # general rows in canonical order, so one active set gives one layout
    # whatever order the caller activated it in
    gen_at = np.flatnonzero(~bound)
    gen_at = gen_at[np.argsort(ids[gen_at])]
    gen = ids[gen_at]
    a_gen = rows.a[gen]
    band = _band_order(h, a_gen)
    var_pos, row_pos, width = band.var_pos, band.row_pos, band.width

    # the fixed variables' rows and columns are left empty but for a unit
    # diagonal, and their values move to the right-hand side
    rhs = np.empty(d + gen.size)
    rhs[var_pos] = -g - h @ z_fixed
    rhs[var_pos[fixed]] = z_fixed[fixed]
    rhs[row_pos] = rows.b[gen] - a_gen @ z_fixed
    h_free = h.copy()
    h_free[fixed] = 0.0
    h_free[:, fixed] = 0.0
    a_free = a_gen.copy()
    a_free[:, fixed] = 0.0
    ab_t = np.zeros((rhs.size, 3 * width + 1))  # dgbsv's band storage, transposed
    flat = ab_t.reshape(-1)
    flat[band.h_put] = h_free.reshape(-1)[band.h_take]
    flat[band.a_put] = a_free.reshape(-1)[band.a_take]
    ab_t[var_pos[fixed], 2 * width] = 1.0

    _, _, sol, info = dgbsv(width, width, ab_t.T, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"singular KKT system (zero pivot {info})")
    z = sol[var_pos]
    lam_gen = -sol[row_pos]
    lam = np.empty(ids.size)
    lam[gen_at] = lam_gen
    lam[bound] = sign * (h @ z + g - a_gen.T @ lam_gen)[fixed]
    return z, lam


def _residuals(rows: _Rows, h_reg: np.ndarray, g: np.ndarray, z: np.ndarray,
               active_set, multipliers) -> KktResiduals:
    ids = np.asarray(active_set, dtype=np.intp)
    lam = np.asarray(multipliers, dtype=float)
    grad = h_reg @ z + g - rows.a[ids].T @ lam
    stationarity = float(np.linalg.norm(grad, ord=np.inf)) if z.size else 0.0

    feas = 0.0
    comp = 0.0
    dual = 0.0
    if rows.n_eq:
        feas = float(np.abs(rows.a_eq @ z - rows.b_eq).max())
    if rows.n_in:
        slack = rows.a_in @ z - rows.b_in
        feas = max(feas, float(np.clip(-slack, 0.0, None).max()))
        lam_in = np.zeros(rows.n_in)
        ineq = ids >= rows.n_eq
        lam_in[ids[ineq] - rows.n_eq] = lam[ineq]
        comp = float(np.abs(lam_in * slack).max())
        dual = max(0.0, -float(lam_in.min()))
    return KktResiduals(stationarity=stationarity, feasibility=feas, complementarity=comp,
                        dual_feasibility=dual)


def kkt_check(p: QpProblem, z: np.ndarray, active_set=(), multipliers=()) -> KktResiduals:
    """Stationarity, primal feasibility, complementarity and dual feasibility.

    Dual feasibility is how far the most negative multiplier on an active
    inequality row lies below zero; with it, a small max() certifies a
    convex QP's optimum.

    active_set holds canonical row indices (equalities first) as produced by
    the solver; multipliers align with it.
    """
    return _residuals(expand_constraints(p), regularized_hessian(p.H), p.g,
                      np.asarray(z, dtype=float), active_set, multipliers)


class _ActiveSet:
    """Active normals with H^-1 columns and the Gram matrix kept incrementally."""

    def __init__(self, dim: int, capacity: int):
        cap = max(capacity, 1)
        self.normals = np.zeros((dim, cap))
        self.hinv = np.zeros((dim, cap))
        self.gram = np.zeros((cap, cap))
        self.mult = np.zeros(cap)
        self.row_ids: list[int] = []
        self.k = 0

    def add(self, normal, hinv_col, mult, row_id):
        k = self.k
        self.normals[:, k] = normal
        self.hinv[:, k] = hinv_col
        if k:
            cross = self.normals[:, :k].T @ hinv_col
            self.gram[:k, k] = cross
            self.gram[k, :k] = cross
        self.gram[k, k] = normal @ hinv_col
        self.mult[k] = mult
        self.row_ids.append(row_id)
        self.k += 1

    def drop(self, j):
        k = self.k
        keep = [i for i in range(k) if i != j]
        self.normals[:, : k - 1] = self.normals[:, keep]
        self.hinv[:, : k - 1] = self.hinv[:, keep]
        self.gram[: k - 1, : k - 1] = self.gram[np.ix_(keep, keep)]
        self.mult[: k - 1] = self.mult[keep]
        del self.row_ids[j]
        self.k = k - 1

    def solve_gram(self, rhs):
        k = self.k
        gram = self.gram[:k, :k]
        try:
            return cho_solve(cho_factor(gram, lower=True), rhs)
        except (LinAlgError, np.linalg.LinAlgError):
            return np.linalg.lstsq(gram, rhs, rcond=None)[0]


class QpSolver:
    """One active-set solver instance per controller; not shareable concurrently."""

    def __init__(self, debug: bool = False):
        self.debug = debug

    def solve(self, p: QpProblem, warm_start=None) -> QpSolution:
        rows = expand_constraints(p)
        d = p.dim
        h_reg = regularized_hessian(p.H)
        try:
            h_factor = cho_factor(h_reg, lower=True)
        except (LinAlgError, np.linalg.LinAlgError) as exc:
            raise QpDataError(f"Hessian is not positive definite: {exc}") from exc

        def objective(zv):
            return float(0.5 * zv @ (h_reg @ zv) + p.g @ zv)

        if warm_start:
            sol = self._try_hot_start(p, rows, h_reg, warm_start, objective)
            if sol is not None:
                return sol

        z = -cho_solve(h_factor, p.g)
        history: list[float] = []
        active = _ActiveSet(d, rows.n_eq + min(d, rows.n_in) + 2)
        n_eq_active = 0
        iterations = 0
        max_iterations = 10 * (d + rows.n_in + rows.n_eq)
        status = OPTIMAL

        # batched equality activation: one KKT solve replaces m_e dual iterations
        if rows.n_eq:
            try:
                z, lam_eq = _kkt_solve(rows, h_reg, p.g, np.arange(rows.n_eq))
            except LinAlgError as exc:
                raise QpDataError(f"equality rows are linearly dependent: {exc}") from exc
            if np.abs(rows.a_eq @ z - rows.b_eq).max() > 1e-6 * (1 + np.abs(rows.b_eq).max()):
                res = _residuals(rows, h_reg, p.g, z, [], [])
                return QpSolution(z, INFEASIBLE, res, (), np.empty(0), 1, objective(z), history)
            hinv_eq = cho_solve(h_factor, rows.a_eq.T)
            for i in range(rows.n_eq):
                active.add(rows.a_eq[i], hinv_eq[:, i], float(lam_eq[i]), i)
            n_eq_active = rows.n_eq
            iterations += 1
        if self.debug:
            history.append(objective(z))

        in_norms = np.linalg.norm(rows.a_in, axis=1) if rows.n_in else np.empty(0)
        in_scale = 1.0 + np.abs(rows.b_in)

        while status == OPTIMAL:
            if rows.n_in == 0:
                break
            slacks = rows.a_in @ z - rows.b_in
            scale = in_scale + in_norms * float(np.linalg.norm(z))
            worst = int(np.argmin(slacks / scale))
            if slacks[worst] >= -_VIOLATION_TOL * scale[worst]:
                break
            n_plus = rows.a_in[worst]
            slack = float(slacks[worst])
            u_plus = 0.0
            w = cho_solve(h_factor, n_plus)

            while True:
                iterations += 1
                if iterations > max_iterations:
                    status = MAX_ITER
                    break
                k = active.k
                if k:
                    r = active.solve_gram(active.normals[:, :k].T @ w)
                    dz = w - active.hinv[:, :k] @ r
                else:
                    r = np.empty(0)
                    dz = w
                denom = float(n_plus @ dz)
                full_possible = denom > _DEGENERACY_TOL * (1 + float(n_plus @ n_plus))

                t1 = np.inf
                drop = -1
                for jj in range(n_eq_active, k):
                    if r[jj] > _DEGENERACY_TOL:
                        ratio = active.mult[jj] / r[jj]
                        if ratio < t1:
                            t1 = ratio
                            drop = jj
                t2 = -slack / denom if full_possible else np.inf
                t = min(t1, t2)
                if not np.isfinite(t):
                    status = INFEASIBLE
                    break
                if np.isfinite(t2):
                    z = z + t * dz
                    slack += t * denom
                u_plus += t
                if k:
                    active.mult[:k] -= t * r
                if self.debug:
                    history.append(objective(z))
                if t == t2 and np.isfinite(t2):
                    active.add(n_plus, w, u_plus, rows.n_eq + worst)
                    break
                active.drop(drop)

        row_ids = list(active.row_ids)
        mult_arr = active.mult[: active.k].copy()
        kkt_res = _residuals(rows, h_reg, p.g, z, row_ids, mult_arr)
        threshold = 1e-9 * (1.0 + float(np.linalg.norm(p.g)))
        if status == OPTIMAL and kkt_res.max() > threshold:
            z, mult_arr, kkt_res = self._polish(p, rows, h_reg, row_ids, n_eq_active, z, mult_arr, kkt_res)
        if status == OPTIMAL and kkt_res.max() > 1e-8 * (1.0 + float(np.linalg.norm(p.g))):
            status = MAX_ITER  # keep the optimal-implies-tight-KKT contract honest
        if self.debug:
            history.append(objective(z))
            self._assert_monotone(history)
        return QpSolution(
            z_star=z,
            status=status,
            kkt=kkt_res,
            active_set=tuple(row_ids),
            multipliers=mult_arr,
            iterations=iterations,
            objective=objective(z),
            dual_objective_history=history,
        )

    def _polish(self, p, rows, h_reg, row_ids, n_eq_active, z0, mult0, kkt0):
        """Exact KKT re-solve on the final active set to remove drift."""
        try:
            z, lam = _kkt_solve(rows, h_reg, p.g, row_ids)
        except LinAlgError:
            return z0, mult0, kkt0  # degenerate final active set; keep iterate
        if np.any(lam[n_eq_active:] < -1e-9 * (1 + np.abs(lam).max(initial=0.0))):
            return z0, mult0, kkt0  # polish would leave the dual cone; keep iterate
        res = _residuals(rows, h_reg, p.g, z, row_ids, lam)
        if res.max() <= kkt0.max():
            return z, lam, res
        return z0, mult0, kkt0

    def _try_hot_start(self, p, rows, h_reg, warm_start, objective):
        """Directly test the warm active set via one KKT solve; None on reject."""
        warm = np.asarray(warm_start, dtype=np.intp)
        keep = np.zeros(rows.b.size, dtype=bool)
        keep[:rows.n_eq] = True
        keep[warm[(warm >= 0) & (warm < keep.size)]] = True
        ids = np.flatnonzero(keep)
        try:
            z, lam = _kkt_solve(rows, h_reg, p.g, ids)
        except LinAlgError:
            return None
        if np.any(lam[ids >= rows.n_eq] < -1e-10):
            return None
        if rows.n_in:
            slack = rows.a_in @ z - rows.b_in
            if np.any(slack < -1e-9 * (1.0 + np.abs(rows.b_in))):
                return None
        res = _residuals(rows, h_reg, p.g, z, ids, lam)
        if res.max() > 1e-8 * (1.0 + float(np.linalg.norm(p.g))):
            return None
        return QpSolution(
            z_star=z,
            status=OPTIMAL,
            kkt=res,
            active_set=tuple(ids.tolist()),
            multipliers=lam,
            iterations=1,
            objective=objective(z),
            dual_objective_history=[objective(z)] if self.debug else [],
        )

    @staticmethod
    def _assert_monotone(history):
        arr = np.asarray(history)
        if arr.size < 2:
            return
        tol = 1e-7 * (1.0 + np.abs(arr).max())
        drops = np.diff(arr) < -tol
        if np.any(drops):
            raise AssertionError(f"dual objective decreased: {arr[np.flatnonzero(drops)[0]:][:3]}")


def solve(p: QpProblem, warm_start=None) -> QpSolution:
    """Convenience one-shot solve with a fresh solver instance."""
    return QpSolver().solve(p, warm_start=warm_start)
