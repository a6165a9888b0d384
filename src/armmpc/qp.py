"""Strictly convex QP solver (dual active-set, Goldfarb-Idnani family).

Solves
    min  0.5 z' H z + g' z
    s.t. Aeq z = beq,  lb <= z <= ub,  lin <= Ain z <= uin

H must be symmetric; a fixed diagonal regularization of
1e-9 * max(trace(H), d)/d is always added, so the solver sees a strictly
convex problem even when the caller's Hessian is only semidefinite. That
matrix is factored once per solve as a band (LAPACK dpbtrf) at the
half-bandwidth of its nonzero pattern, the full width for a dense H; that
factor is only the convexity check, and no linear system is solved with
it. Bounds stay bounds (as in qpOASES; Ferreau et al., 2014): a canonical
row is a sign and a source, either a variable or a general row (Aeq or
Ain, kept dense), so a bound's slack is sign * z_i - value, and no row is
written out as a dense +-e_i.

The solver makes one start: a KKT solve with the equality rows and the rows
of the warm active set, if one is given, held at equality. A start that is
already optimal is the solution (the hot start). Otherwise the warm rows
with negative multipliers are dropped, which leaves a dual-feasible working
set, and the classical dual method resumes from it: it adds the most
violated inequality, taking dual steps and dropping blocking constraints,
and the dual objective is nondecreasing across iterations. The working set
is a list of row ids and their multipliers; each dual step is the KKT
system of the working rows held at zero with the entering row's normal as
the negative gradient, which is the Goldfarb-Idnani step in full-space form
(Nocedal & Wright, 2006, ch. 16), so no Gram matrix is kept. The converged
iterate is polished by one exact KKT solve on the final active set, plus
one step of iterative refinement, whenever the residuals ask for it.

Every one of those KKT systems is one banded LU (LAPACK dgbsv). Active
bounds, pinned ones included, fix their variable: its KKT row and column
become a unit diagonal and its value moves to the right-hand side; the
bound's multiplier is read back from the stationarity residual. Each other
active row keeps a multiplier placed right after the last variable it
touches, so a problem ordered by stage (the MPC QPs) gives a band whose
width does not grow with the horizon. A singular warm set leaves the
equality rows alone as the start; singular equality rows are linearly
dependent, a QpDataError; a singular dual step ends the solve as MAX_ITER
(no certificate) at the current iterate; a singular polish keeps the
iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dpbtrf

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_VIOLATION_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class QpDataError(ValueError):
    """Problem data is malformed (shapes, non-finite entries, crossed bounds)."""


def regularized_hessian(h: np.ndarray) -> np.ndarray:
    """The Hessian the solver actually optimizes: H + eps*I, eps = 1e-9 max(tr(H), d)/d."""
    h = np.asarray(h, dtype=float)
    d = h.shape[0]
    eps = 1e-9 * max(np.trace(h), d) / d
    out = h + h.T
    out *= 0.5
    out.reshape(-1)[::d + 1] += eps
    return out


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
        h_max, h_min = float(self.H.max()), float(self.H.min())  # NaN propagates into both
        if not (math.isfinite(h_max) and math.isfinite(h_min) and np.isfinite(self.g).all()):
            raise QpDataError("H and g must be finite")
        asym = self.H - self.H.T
        if max(asym.max(), -asym.min()) > 1e-8 * (1 + max(h_max, -h_min)):
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
        m = 0
        if self.Ain is not None:
            if self.Ain.ndim != 2 or self.Ain.shape[1] != d:
                raise QpDataError(f"Ain must have {d} columns")
            if not np.all(np.isfinite(self.Ain)):
                raise QpDataError("Ain must be finite")
            if self.lin is None or self.uin is None:
                raise QpDataError("Ain requires lin and uin")
            m = self.Ain.shape[0]
        for name, size, never, strict in (("lb", d, np.inf, np.less),
                                          ("ub", d, -np.inf, np.greater),
                                          ("lin", m, np.inf, np.less),
                                          ("uin", m, -np.inf, np.greater)):
            val = getattr(self, name)
            if val is None:
                continue
            if val.shape != (size,):
                raise QpDataError(f"{name} must have shape ({size},), got {val.shape}")
            if not strict(val, never).all():  # false on NaN and on the infinity no z meets
                if np.isnan(val).any():
                    raise QpDataError(f"{name} holds NaN (+-inf means no bound)")
                raise QpDataError(f"{name} holds {never:+}, which no point satisfies")
        for lo, hi in ((self.lb, self.ub), (self.lin, self.uin)):
            # neither holds NaN, lo no +inf and hi no -inf, so only finite pairs can cross
            if lo is not None and hi is not None and np.any(lo > hi + 1e-12):
                raise QpDataError("lower bound exceeds upper bound")

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
    """Canonical one-sided rows a'z >= b; the first n_eq are held at equality.

    Row i reads sign[i] * s[src[i]] >= b[i] with s = [z; gen z]: a source
    src < d is a bound on that variable, src >= d the general row src - d
    of gen (the rows of Aeq, then of Ain, as given). first and last are the
    first and last nonzero column of each general row.
    """

    b: np.ndarray
    n_eq: int
    src: np.ndarray
    sign: np.ndarray
    gen: np.ndarray
    first: np.ndarray
    last: np.ndarray

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
    mats = [m for m in (p.Aeq, p.Ain) if m is not None]
    gen = np.vstack(mats) if len(mats) > 1 else mats[0] if mats else np.zeros((0, d))
    beq = np.empty(0) if p.Aeq is None else p.beq
    lb = np.full(d, -np.inf) if p.lb is None else p.lb
    ub = np.full(d, np.inf) if p.ub is None else p.ub
    lin, uin = (np.empty(0), np.empty(0)) if p.Ain is None else (p.lin, p.uin)
    ain = d + beq.size + np.arange(lin.size)
    pinned, pinned_rows = np.isfinite(lb) & (lb == ub), np.isfinite(lin) & (lin == uin)
    lower, upper = np.isfinite(lb) & ~pinned, np.isfinite(ub) & ~pinned
    low_rows, up_rows = np.isfinite(lin) & ~pinned_rows, np.isfinite(uin) & ~pinned_rows
    # (values, sources): equality rows, then lower and upper bounds, Ain lowers and uppers
    blocks = [(beq, d + np.arange(beq.size)), (lb[pinned], every[pinned]),
              (lin[pinned_rows], ain[pinned_rows]), (lb[lower], every[lower]),
              (-ub[upper], every[upper]), (lin[low_rows], ain[low_rows]),
              (-uin[up_rows], ain[up_rows])]
    sizes = [values.size for values, _ in blocks]
    nz = gen != 0
    return _Rows(b=np.concatenate([values for values, _ in blocks]), n_eq=sum(sizes[:3]),
                 src=np.concatenate([src for _, src in blocks]),
                 sign=np.repeat([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0], sizes),
                 gen=gen, first=np.argmax(nz, axis=1),
                 last=d - 1 - np.argmax(nz[:, ::-1], axis=1))


def _values(rows: _Rows, z: np.ndarray) -> np.ndarray:
    """a'z of every canonical row."""
    return rows.sign * np.concatenate([z, rows.gen @ z])[rows.src]


def _combine(rows: _Rows, ids, lam) -> np.ndarray:
    """sum_i lam_i a_i over the canonical rows ids."""
    d = rows.gen.shape[1]
    per_src = np.bincount(rows.src[ids], weights=rows.sign[ids] * lam,
                          minlength=d + rows.gen.shape[0])
    return per_src[:d] + per_src[d:] @ rows.gen


class _Hessian(NamedTuple):
    """H + eps I as the solver uses it, scanned once: first is each row's first
    nonzero column, which every KKT layout reads; factor is the lower band
    Cholesky factor (dpbtrf) at the half-bandwidth max_i (i - first_i), None
    unless H + eps I is positive definite (the convexity check)."""

    dense: np.ndarray
    first: np.ndarray
    factor: np.ndarray | None


def _hessian(h: np.ndarray) -> _Hessian:
    dense = regularized_hessian(h)
    d = dense.shape[0]
    at = np.arange(d)
    first = np.argmax(dense != 0, axis=1)  # a regularized H has a nonzero diagonal
    width = int((at - first).max(initial=0))
    # band storage ab[o, j] = h[j + o, j], transposed; clipped entries are never read
    take = np.minimum(at[:, None] * (d + 1) + np.arange(width + 1) * d, d * d - 1)
    factor, info = dpbtrf(dense.reshape(-1)[take].T, lower=1, overwrite_ab=1)
    return _Hessian(dense, first, factor if info == 0 and np.isfinite(factor).all() else None)


class _Band(NamedTuple):
    """Where the variables and the general active rows sit in the banded KKT.
    h_take gathers H's lower band twice (flat indices into H), h_put scatters
    it below and above the diagonal of dgbsv's band storage, transposed; a_take
    and a_put do the same for the general rows."""

    var_pos: np.ndarray  # KKT position of each variable
    row_pos: np.ndarray  # KKT position of each general row
    width: int  # half-bandwidth of the KKT matrix in this order
    h_take: np.ndarray
    h_put: np.ndarray
    a_take: np.ndarray
    a_put: np.ndarray


@lru_cache(maxsize=4)  # two controllers' layouts
def _band_layout(h_first: bytes, first: bytes, last: bytes) -> _Band:
    """Interleaved KKT order of the variables and the general active rows.

    Variables keep their natural order; each general row is placed right
    after the last variable it touches (ties keep their given order). The
    half-bandwidth of [[h, a'], [a, 0]] is read off the nonzero spans (each
    row of H from h_first, each general row from first to last), whatever
    variables are fixed. The layout is cached by those spans, never by row
    ids alone: a controller's QPs share one pattern for H, their general
    active rows come in few patterns (at most two layouts per closed-loop
    run of either MPC), and a rebuild would add 25-70% to each KKT solve.
    """
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


def _kkt_solve(rows: _Rows, hess: _Hessian, g: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 0.5 z'hz + g'z with the rows ids held at equality.

    Bound rows among ids fix their variable; the general rows enter a
    banded KKT system in the order of _band_layout, factored by one dgbsv.
    Returns z and the multipliers aligned with ids (a'z >= b convention:
    h z + g = sum lam_i a_i). Raises LinAlgError when the system is
    singular, which includes a variable fixed by two rows.
    """
    d = g.shape[0]
    h = hess.dense
    ids = np.asarray(ids, dtype=np.intp)
    src = rows.src[ids]
    bound = src < d
    fixed = src[bound]
    if np.bincount(fixed, minlength=1).max() > 1:
        raise LinAlgError("a variable is fixed by two active rows")
    sign = rows.sign[ids[bound]]
    z_fixed = np.zeros(d)
    z_fixed[fixed] = sign * rows.b[ids[bound]]
    # general rows in canonical order, so one active set gives one layout
    # whatever order the caller activated it in
    gen_at = np.flatnonzero(~bound)
    gen_at = gen_at[np.argsort(ids[gen_at])]
    gen = ids[gen_at]
    base = rows.src[gen] - d
    a_gen = rows.gen[base]
    upper = rows.sign[gen] < 0
    a_gen[upper] = -a_gen[upper]
    band = _band_layout(hess.first.tobytes(), rows.first[base].tobytes(),
                        rows.last[base].tobytes())
    var_pos, row_pos, width = band.var_pos, band.row_pos, band.width

    # the fixed variables' values move to the right-hand side
    rhs = np.empty(d + gen.size)
    rhs[var_pos] = -g - h @ z_fixed
    rhs[var_pos[fixed]] = z_fixed[fixed]
    rhs[row_pos] = rows.b[gen] - a_gen @ z_fixed
    # dgbsv's band storage, transposed ((i, j) at [j, 2w + i - j]), with w spare rows each side
    margin = np.zeros((rhs.size + 2 * width, 3 * width + 1))
    ab_t = margin[width:width + rhs.size]
    flat = ab_t.reshape(-1)
    flat[band.h_put] = h.reshape(-1)[band.h_take]
    flat[band.a_put] = a_gen.reshape(-1)[band.a_take]
    # a fixed variable's KKT column and row are empty but for a unit diagonal
    at = var_pos[fixed]
    ab_t[at] = 0.0
    off = np.arange(-width, width + 1)
    margin[width + at[:, None] + off, 2 * width - off] = 0.0
    ab_t[at, 2 * width] = 1.0

    _, _, sol, info = dgbsv(width, width, ab_t.T, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"singular KKT system (zero pivot {info})")
    z = sol[var_pos]
    lam_gen = -sol[row_pos]
    lam = np.empty(ids.size)
    lam[gen_at] = lam_gen
    lam[bound] = sign * (h @ z + g - a_gen.T @ lam_gen)[fixed]
    return z, lam


def _kkt_start(rows: _Rows, hess: _Hessian, g: np.ndarray, ids):
    """(ids, z, lam) of the KKT solve with the rows ids active; None when singular."""
    try:
        return (ids, *_kkt_solve(rows, hess, g, ids))
    except LinAlgError:
        return None


def _residuals(rows: _Rows, h_reg: np.ndarray, g: np.ndarray, z: np.ndarray,
               active_set, multipliers) -> KktResiduals:
    ids = np.asarray(active_set, dtype=np.intp)
    lam = np.asarray(multipliers, dtype=float)
    grad = h_reg @ z + g - _combine(rows, ids, lam)
    slack = _values(rows, z) - rows.b
    slack_in = slack[rows.n_eq:]
    lam_in = np.zeros(rows.n_in)
    ineq = ids >= rows.n_eq
    lam_in[ids[ineq] - rows.n_eq] = lam[ineq]
    return KktResiduals(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        feasibility=float(max(np.abs(slack[:rows.n_eq]).max(initial=0.0),
                              (-slack_in).max(initial=0.0))),
        complementarity=float(np.abs(lam_in * slack_in).max(initial=0.0)),
        dual_feasibility=max(0.0, -float(lam_in.min(initial=0.0))))


def kkt_check(p: QpProblem, z: np.ndarray, active_set=(), multipliers=()) -> KktResiduals:
    """Stationarity, primal feasibility, complementarity and dual feasibility.

    Dual feasibility is how far the most negative multiplier on an active
    inequality row lies below zero; with it, a small max() certifies a
    convex QP's optimum. active_set holds distinct canonical row indices
    (equalities first) as the solver produces them, multipliers align with
    it; anything else is a ValueError, since a repeated or wrapped-around id
    would count a multiplier twice or on the wrong row and hide its sign.
    """
    rows = expand_constraints(p)
    ids = np.asarray(active_set)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError("active_set must be a sequence of integer row ids")
    ids = ids.astype(np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= rows.b.size or np.unique(ids).size < ids.size):
        raise ValueError(f"active_set must hold distinct row ids in [0, {rows.b.size})")
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != ids.shape:
        raise ValueError(f"{ids.size} active rows need as many multipliers, got shape {lam.shape}")
    return _residuals(rows, regularized_hessian(p.H), p.g, np.asarray(z, dtype=float), ids, lam)


class QpSolver:
    """One active-set solver instance per controller; not shareable concurrently."""

    def __init__(self, debug: bool = False):
        self.debug = debug

    def solve(self, p: QpProblem, warm_start=None) -> QpSolution:
        rows = expand_constraints(p)
        d = p.dim
        hess = _hessian(p.H)
        if hess.factor is None:
            raise QpDataError("Hessian is not positive definite")
        h_reg = hess.dense

        def objective(zv):
            return float(0.5 * zv @ (h_reg @ zv) + p.g @ zv)

        # one start: the equality rows plus the valid warm rows
        start_rows = np.arange(rows.b.size) < rows.n_eq
        if warm_start:
            warm = np.asarray(warm_start, dtype=np.intp)
            start_rows[warm[(warm >= 0) & (warm < rows.b.size)]] = True
        start = _kkt_start(rows, hess, p.g, np.flatnonzero(start_rows))
        if warm_start:
            sol = self._try_hot_start(p, rows, h_reg, start, objective)
            if sol is not None:
                return sol
        if start is None:  # a singular warm set leaves the equality rows alone
            start = _kkt_start(rows, hess, p.g, np.arange(rows.n_eq))
        if start is None:
            raise QpDataError("equality rows are linearly dependent")
        ids, z, lam = start
        # the dual method resumes from any dual-feasible working set (Goldfarb
        # & Idnani, 1983): drop the warm rows with negative multipliers
        while np.any(negative := (lam < 0) & (ids >= rows.n_eq)):
            ids = ids[~negative]
            z, lam = _kkt_solve(rows, hess, p.g, ids)
        b_eq, b_in = rows.b[:rows.n_eq], rows.b[rows.n_eq:]
        if rows.n_eq and np.abs(_values(rows, z)[:rows.n_eq] - b_eq).max() > 1e-6 * (1 + np.abs(b_eq).max()):
            res = _residuals(rows, h_reg, p.g, z, [], [])
            return QpSolution(z, INFEASIBLE, res, (), np.empty(0), 1, objective(z), [])
        # the working set: row ids, the equality rows first, and their multipliers
        row_ids, mult_arr = ids.tolist(), lam
        # a dual step holds every working row at zero (see the loop below)
        held = replace(rows, b=np.zeros_like(rows.b))
        iterations = 1
        max_iterations = 10 * (d + rows.n_in + rows.n_eq)
        status = OPTIMAL
        history = [objective(z)] if self.debug else []

        norms = np.concatenate([np.ones(d), np.linalg.norm(rows.gen, axis=1)])
        in_norms, in_scale = norms[rows.src[rows.n_eq:]], 1.0 + np.abs(b_in)

        while status == OPTIMAL and rows.n_in:
            slacks = _values(rows, z)[rows.n_eq:] - b_in
            scale = in_scale + in_norms * float(np.linalg.norm(z))
            worst = int(np.argmin(slacks / scale))
            if slacks[worst] >= -_VIOLATION_TOL * scale[worst]:
                break
            n_plus = _combine(rows, [rows.n_eq + worst], [1.0])
            slack = float(slacks[worst])
            u_plus = 0.0

            while True:
                iterations += 1
                if iterations > max_iterations:
                    status = MAX_ITER
                    break
                # the step dz = H^-1 n+ - H^-1 N r, with (N'H^-1 N) r = N'H^-1 n+,
                # solves [[H, N], [N', 0]] (dz, r) = (n+, 0) (Nocedal & Wright,
                # 2006, ch. 16): the KKT system of gradient -n+ with the working
                # rows at zero, whose multipliers are -r
                try:
                    dz, neg_r = _kkt_solve(held, hess, -n_plus, row_ids)
                except LinAlgError:
                    status = MAX_ITER  # no certificate; keep the iterate
                    break
                r = -neg_r
                denom = float(n_plus @ dz)
                full_possible = denom > _DEGENERACY_TOL * (1 + float(n_plus @ n_plus))

                # the first blocking inequality row (the equality rows never block)
                r_in = r[rows.n_eq:]
                ratios = np.divide(mult_arr[rows.n_eq:], r_in, out=np.full(r_in.size, np.inf),
                                   where=r_in > _DEGENERACY_TOL)
                t1 = ratios.min(initial=np.inf)
                t2 = -slack / denom if full_possible else np.inf
                t = min(t1, t2)
                if not np.isfinite(t):
                    status = INFEASIBLE
                    break
                if np.isfinite(t2):
                    z = z + t * dz
                    slack += t * denom
                u_plus += t
                mult_arr -= t * r
                if self.debug:
                    history.append(objective(z))
                if t == t2:
                    row_ids.append(rows.n_eq + worst)
                    mult_arr = np.append(mult_arr, u_plus)
                    break
                drop = rows.n_eq + int(np.argmin(ratios))
                del row_ids[drop]
                mult_arr = np.delete(mult_arr, drop)

        kkt_res = _residuals(rows, h_reg, p.g, z, row_ids, mult_arr)
        threshold = 1e-9 * (1.0 + float(np.linalg.norm(p.g)))
        if status == OPTIMAL and kkt_res.max() > threshold:
            z, mult_arr, kkt_res = self._polish(p, rows, hess, row_ids, z, mult_arr, kkt_res)
        if status == OPTIMAL and kkt_res.max() > 1e-8 * (1.0 + float(np.linalg.norm(p.g))):
            status = MAX_ITER  # keep the optimal-implies-tight-KKT contract honest
        if self.debug:
            history.append(objective(z))
            self._assert_monotone(history)
        return QpSolution(z, status, kkt_res, tuple(row_ids), mult_arr, iterations, objective(z),
                          history)

    def _polish(self, p, rows, hess, row_ids, z0, mult0, kkt0):
        """Exact KKT re-solve on the final active set to remove drift, then one
        step of iterative refinement: the same KKT system solved for the
        correction, with b - a z on the general rows, 0 on the bound rows
        (whose variables the solve fixes exactly) and the stationarity
        residual as the gradient. Large multipliers magnify the round-off
        left in the active rows' slacks, which complementarity would report.
        """
        try:
            z, lam = _kkt_solve(rows, hess, p.g, row_ids)
            residual = replace(rows, b=np.where(rows.src < p.dim, 0.0, rows.b - _values(rows, z)))
            grad = hess.dense @ z + p.g - _combine(rows, row_ids, lam)
            dz, dlam = _kkt_solve(residual, hess, grad, row_ids)
        except LinAlgError:
            return z0, mult0, kkt0  # degenerate final active set; keep iterate
        z, lam = z + dz, lam + dlam
        if np.any(lam[rows.n_eq:] < -1e-9 * (1 + np.abs(lam).max(initial=0.0))):
            return z0, mult0, kkt0  # polish would leave the dual cone; keep iterate
        res = _residuals(rows, hess.dense, p.g, z, row_ids, lam)
        if res.max() <= kkt0.max():
            return z, lam, res
        return z0, mult0, kkt0

    def _try_hot_start(self, p, rows, h_reg, start, objective):
        """The warm start (ids, z, lam) as the solution when it is already
        optimal; None when it is rejected, or singular (start None)."""
        if start is None:
            return None
        ids, z, lam = start
        if np.any(lam[ids >= rows.n_eq] < -1e-10):
            return None
        b_in = rows.b[rows.n_eq:]
        if np.any(_values(rows, z)[rows.n_eq:] - b_in < -1e-9 * (1.0 + np.abs(b_in))):
            return None
        res = _residuals(rows, h_reg, p.g, z, ids, lam)
        if res.max() > 1e-8 * (1.0 + float(np.linalg.norm(p.g))):
            return None
        return QpSolution(z, OPTIMAL, res, tuple(ids.tolist()), lam, 1, objective(z),
                          [objective(z)] if self.debug else [])

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
