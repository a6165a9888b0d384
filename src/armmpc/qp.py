"""Strictly convex QP solver (dual active-set, Goldfarb-Idnani family).

Solves
    min  0.5 z' H z + g' z
    s.t. lb <= z <= ub,  lin <= Ain z <= uin

an equality being a pinned pair of sides (lb == ub, lin == uin) and a
missing side +-inf, as every constraint of OSQP is l <= A z <= u. H comes
as its lower band in LAPACK storage (Anderson et al., 1999), so it is
symmetric by storage, and its writer, which knows where its nonzeros sit,
sets the half-bandwidth. A fixed diagonal regularization of 1e-9 *
max(trace(H), d)/d is always added to a copy of the band, so the solver
sees a strictly convex problem even when H is only semidefinite. That copy
is factored once per solve (LAPACK dpbtrf): the convexity check, and the
KKT system of a working set with no rows (Goldfarb & Idnani, 1983, solve
the dual method's steps on H's Cholesky factor); each H z is one banded
product (BLAS dsbmv). Bounds stay bounds (as in qpOASES; Ferreau et al.,
2014): a canonical row is a sign and a source, a variable or a general row
(of Ain, kept dense), so a bound's slack is sign * z_i - value, and no row
is written out as +-e_i.

Setup and update, as in OSQP (Stellato et al., 2020): the structure of a
problem's rows depends only on its pattern (which sides of the bounds and
Ain rows are finite or pinned, and Ain's nonzeros). _setup builds it once
per pattern and caches it, as _band_layout caches the KKT layouts (Frison &
Diehl, 2020); expand_constraints(p) fills it in with p's values, the one
route from a problem to its rows. A QpSolver holds no state: a new pattern
(a newly pinned or infinite bound, a new nonzero of Ain) is set up when it
first appears, whoever solves it, and again only once evicted from the
cache.

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
one step of iterative refinement, whenever the residuals ask for it. Each
residual test fails on a NaN, so a NaN is never optimal.

A KKT system with no working rows (the kinematic MPC's start on every
tick, and a dual step from an empty set) is one back-solve (LAPACK
dpbtrs) on H's factor; every other one is one banded LU (LAPACK dgbsv),
so a working set fixed by bounds alone still assembles a band. Active
bounds, pinned ones included, fix their variable: its KKT row and column
become a unit diagonal and its value moves to the right-hand side; the
bound's multiplier is read back from the stationarity residual. Each other
active row keeps a multiplier placed right before the variable at the
middle of the span it touches, so a problem ordered by stage (the MPC QPs) gives a
band whose width does not grow with the horizon, and a row reaches half its
span each way, not its whole span back. A singular warm set leaves the
equality rows alone as the start; singular equality rows are linearly
dependent, a QpDataError; a singular dual step ends the solve as MAX_ITER
(no certificate) at the current iterate; a singular polish keeps the
iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, blas
from scipy.linalg.lapack import dgbsv, dpbtrf, dpbtrs

from .robot_model import all_finite

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_VIOLATION_TOL = 1e-10
_DEGENERACY_TOL = 1e-12


class QpDataError(ValueError):
    """Problem data is malformed (shapes, non-finite entries, crossed bounds)."""


# id -> (Ain, whether finite, packed nonzeros) of the constant Ain seen last;
# each entry keeps its array alive, so an id is not reused while kept
_CONSTANT_ROWS: dict[int, tuple[np.ndarray, bool, bytes]] = {}


def _constant_rows(ain: np.ndarray) -> tuple[bool, bytes] | None:
    """(whether every entry is finite, the nonzeros packed into bytes) of an
    ain that is read-only and owns its data, derived on its first sight and
    kept for up to 8 such arrays (a few controllers' constant rows); None
    for any other ain, whose facts are derived where they are read."""
    kept = _CONSTANT_ROWS.get(id(ain))
    if kept is not None:
        return kept[1:]
    if ain.flags.writeable or ain.base is not None:
        return None
    if len(_CONSTANT_ROWS) >= 8:
        del _CONSTANT_ROWS[next(iter(_CONSTANT_ROWS))]
    kept = _CONSTANT_ROWS[id(ain)] = (ain, bool(np.isfinite(ain).all()),
                                      np.packbits(ain != 0).tobytes())
    return kept[1:]


def _regularization(ab: np.ndarray) -> float:
    """The solver's diagonal regularization eps = 1e-9 max(tr(H), d)/d of
    H's lower band ab, whose row 0 is H's diagonal."""
    return 1e-9 * max(ab[0].sum(), ab.shape[1]) / ab.shape[1]


def regularized_hessian(ab: np.ndarray) -> np.ndarray:
    """The lower band of the Hessian the solver actually optimizes, H + eps I:
    a copy of H's band ab (in Fortran order, as LAPACK and BLAS take it) with
    eps added to row 0."""
    out = np.array(ab, dtype=float, order="F")
    out[0] += _regularization(out)
    return out


def _hz(ab: np.ndarray, z: np.ndarray) -> np.ndarray:
    """H z for H's lower band ab."""
    return blas.dsbmv(ab.shape[0] - 1, 1.0, ab, z, lower=1)


@dataclass
class QpProblem:
    """Strictly convex QP with bounds and two-sided rows, either pinned for an
    equality; its values are checked here. H is the lower band of the d x d
    Hessian in LAPACK storage, ab[i, j] = H[j + i, j] of shape (w + 1, d)
    for a half-bandwidth 0 <= w < d, each entry finite, those past the last
    row (i + j >= d) unused. An absent input is filled here in its explicit
    form: lb and ub with -inf and +inf, Ain, lin and uin with no rows. The
    sides are gathered once, as sides = [lb; lin] over [ub; uin] of shape
    (2, d + m), with their finiteness, so a problem's arrays are not to be
    changed once it is built. An Ain that is read-only and owns its data
    (the kinematic MPC's constant velocity rows) is taken as constant across
    problems: its finiteness and nonzeros are derived once (_constant_rows)."""

    H: np.ndarray
    g: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    Ain: np.ndarray | None = None
    lin: np.ndarray | None = None
    uin: np.ndarray | None = None
    sides: np.ndarray = field(init=False, repr=False)
    finite: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        H, g, lb, ub, Ain, lin, uin = [None if x is None else np.asarray(x, dtype=float) for x in
                                       (self.H, self.g, self.lb, self.ub, self.Ain, self.lin, self.uin)]
        if Ain is not None and (lin is None or uin is None):
            raise QpDataError("Ain requires lin and uin")
        if H is None or g is None or g.ndim != 1 or not g.size:
            raise QpDataError("H and g are required, g a vector of d >= 1 entries")
        d = g.shape[0]
        if H.ndim != 2 or not 1 <= H.shape[0] <= d or H.shape[1] != d:
            raise QpDataError(f"H must be a lower band of shape (w + 1, {d}), 0 <= w < {d}, "
                              f"got {H.shape}")
        m = 0 if Ain is None or Ain.ndim == 0 else Ain.shape[0]
        # the explicit form: no bound, no general row
        lb = np.full(d, -np.inf) if lb is None else lb
        ub = np.full(d, np.inf) if ub is None else ub
        Ain = np.zeros((m, d)) if Ain is None else Ain
        lin = np.zeros(m) if lin is None else lin
        uin = np.zeros(m) if uin is None else uin
        for name, val, shape in (("lb", lb, (d,)), ("ub", ub, (d,)), ("Ain", Ain, (m, d)),
                                 ("lin", lin, (m,)), ("uin", uin, (m,))):
            if val.shape != shape:
                raise QpDataError(f"{name} must have shape {shape}, got {val.shape}")
        kept = _constant_rows(Ain)
        if not ((all_finite(H, g) and kept[0]) if kept else all_finite(H, g, Ain)):
            raise QpDataError("H, g and Ain must be finite")
        self.H, self.g, self.lb, self.ub, self.Ain, self.lin, self.uin = H, g, lb, ub, Ain, lin, uin
        self.sides = np.concatenate([lb, lin, ub, uin]).reshape(2, d + m)
        self.finite = np.isfinite(self.sides)
        lo, hi = self.sides
        # a side that is not finite must be no bound: lo -inf, hi +inf (the
        # comparisons are false on NaN too)
        if not (self.finite.all() or (lo < np.inf).all() and (hi > -np.inf).all()):
            for name, never in (("lb", np.inf), ("ub", -np.inf), ("lin", np.inf), ("uin", -np.inf)):
                val = getattr(self, name)
                if np.isnan(val).any():
                    raise QpDataError(f"{name} holds NaN (+-inf means no bound)")
                if (val == never).any():
                    raise QpDataError(f"{name} holds {never:+}, which no point satisfies")
        # neither holds NaN, lo no +inf and hi no -inf, so only finite pairs can cross
        if (lo > hi + 1e-12).any():
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
        """The largest residual; NaN if any is NaN."""
        vals = (self.stationarity, self.feasibility, self.complementarity, self.dual_feasibility)
        return math.nan if any(map(math.isnan, vals)) else max(vals)


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


class QpStructure(NamedTuple):
    """A QP's canonical rows a'z >= b, the first n_eq held at equality, as
    _setup derives them from a pattern, b and gen left for
    expand_constraints to fill.

    Row i reads sign[i] * s[src[i]] >= b[i] = sign[i] * sides.ravel()[take[i]],
    s = [z; gen z]: src < d is a bound on that variable, src >= d the
    general row src - d of gen (Ain's rows), nonzero from first to last."""

    b: np.ndarray | None
    n_eq: int
    src: np.ndarray
    sign: np.ndarray
    gen: np.ndarray | None
    first: np.ndarray
    last: np.ndarray
    take: np.ndarray

    @property
    def n_in(self) -> int:
        return self.b.shape[0] - self.n_eq


@lru_cache(maxsize=8)  # a few controllers' patterns
def _setup(shape: tuple, finite: bytes, pinned: bytes, nonzeros: bytes) -> QpStructure:
    """The structure shared by every problem of one pattern, built from the
    pattern alone: Ain's shape (m, d); whether each lower and upper side of
    the bounds, then of the Ain rows, is finite, and whether the two are
    pinned (equal), as bytes of bools; and Ain's nonzeros, packed into bits.
    Canonical row order (active-set ids): pinned bounds (lb == ub), pinned
    Ain rows (lin == uin); then bound lowers, bound uppers, Ain lowers, Ain
    uppers (each skipping infinities and pins).
    """
    m, d = shape
    n = d + m  # sides: d bounds, then the Ain rows
    finite = np.frombuffer(finite, dtype=bool).reshape(2, n)
    pinned = np.frombuffer(pinned, dtype=bool)
    nz = np.unpackbits(np.frombuffer(nonzeros, dtype=np.uint8), count=m * d).view(bool)
    nz = nz.reshape(m, d)
    bound, (lower, upper) = np.arange(n) < d, finite & ~pinned
    picks = [np.flatnonzero(rows) for rows in
             (pinned, lower & bound, upper & bound, lower & ~bound, upper & ~bound)]
    # a lower side (or a pin) at its index in sides.ravel(), an upper one n further
    take = np.concatenate([off + pick for off, pick in zip((0, 0, n, 0, n), picks)])
    structure = QpStructure(
        None, picks[0].size, np.concatenate(picks), np.where(take < n, 1.0, -1.0), None,
        np.argmax(nz, axis=1), d - 1 - np.argmax(nz[:, ::-1], axis=1), take)
    for arr in structure:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)  # every problem of the pattern shares them
    return structure


def expand_constraints(p: QpProblem) -> QpStructure:
    """p's canonical rows: the cached structure of its pattern (see _setup)
    with p's values filled in."""
    kept = _constant_rows(p.Ain)
    s = _setup(p.Ain.shape, p.finite.tobytes(), (p.sides[0] == p.sides[1]).tobytes(),
               kept[1] if kept else np.packbits(p.Ain != 0).tobytes())
    return QpStructure(s.sign * p.sides.ravel()[s.take], s.n_eq, s.src, s.sign, p.Ain,
                       s.first, s.last, s.take)


def _values(rows: QpStructure, z: np.ndarray) -> np.ndarray:
    """a'z of every canonical row."""
    return rows.sign * np.concatenate([z, rows.gen @ z])[rows.src]


def _combine(rows: QpStructure, ids, lam) -> np.ndarray:
    """sum_i lam_i a_i over the canonical rows ids."""
    d = rows.gen.shape[1]
    per_src = np.bincount(rows.src[ids], weights=rows.sign[ids] * lam,
                          minlength=d + rows.gen.shape[0])
    return per_src[:d] + per_src[d:] @ rows.gen


class _Hessian(NamedTuple):
    """The lower band of H + eps I and its band Cholesky factor (dpbtrf
    storage); factor None unless positive definite, or to solve by the
    banded LU alone."""

    band: np.ndarray
    factor: np.ndarray | None


def _hessian(ab: np.ndarray) -> _Hessian:
    """regularized_hessian(ab) and its band Cholesky factor (dpbtrf): the
    convexity check, and the KKT system of an empty working set."""
    band = regularized_hessian(ab)
    factor, info = dpbtrf(band, lower=1)
    return _Hessian(band, factor if info == 0 and all_finite(factor) else None)


class _Band(NamedTuple):
    """Where the variables and the general active rows sit in the banded KKT.
    h_take gathers H's lower band twice (flat indices into its Fortran-order
    storage), h_put scatters it below and above the diagonal of dgbsv's band
    storage, transposed; a_take and a_put do the same for the general rows."""

    var_pos: np.ndarray  # KKT position of each variable
    row_pos: np.ndarray  # KKT position of each general row
    width: int  # half-bandwidth of the KKT matrix in this order
    h_take: np.ndarray
    h_put: np.ndarray
    a_take: np.ndarray
    a_put: np.ndarray


@lru_cache(maxsize=4)  # two controllers' layouts
def _band_layout(h_width: int, d: int, first: bytes, last: bytes) -> _Band:
    """Interleaved KKT order of the d variables and the general active rows.

    Variables keep their natural order; each general row is placed right
    before the variable at the middle of its span, (first + last) // 2 (ties
    keep their given order), so that it reaches about as far back as ahead;
    on the dynamic MPC's stage rows this gives a narrower band than placing
    it right after that variable (31 against 35), and the same on the
    kinematic MPC's (27). The half-bandwidth of [[h, a'], [a, 0]] is read
    off the nonzero spans (H's band of half-width h_width, each general row
    from first to last, both ends), whatever variables are fixed. The layout
    is cached by those spans, never by row ids alone: a controller's QPs
    share one band for H, their general active rows come in few patterns (at
    most two layouts per closed-loop run of either MPC), and a rebuild would
    add 25-70% to each KKT solve.
    """
    first, last = (np.frombuffer(x, dtype=np.intp) for x in (first, last))
    m = first.size
    mid = (first + last) // 2
    order = np.argsort(mid, kind="stable")
    mid_sorted = mid[order]
    var_pos = np.arange(d) + np.searchsorted(mid_sorted, np.arange(d), side="right")
    row_pos = np.empty(m, dtype=np.intp)
    row_pos[order] = mid_sorted + np.arange(m)
    # H's entry (j + o, j) for each of its diagonals o, within the matrix
    o, j = np.nonzero(np.arange(h_width + 1)[:, None] + np.arange(d) < d)
    i = j + o
    width = max(int((var_pos[i] - var_pos[j]).max()),
                int((row_pos - var_pos[first]).max(initial=0)),
                int((var_pos[last] - row_pos).max(initial=0)))

    # band storage entry (i, j) sits at ab[2w + i - j, j], flat j*(3w+1) + 2w + i - j
    # of its transpose; each general row's entries are taken over its nonzero
    # span, clipped indices repeating an entry where a span is shorter than the longest
    def flat(i, j):
        return j * 3 * width + i + 2 * width

    span = int((last - first).max(initial=0))
    a_cols = np.minimum(first[:, None] + np.arange(span + 1), last[:, None])
    r, c = row_pos[:, None], var_pos[a_cols]
    h_take = j * (h_width + 1) + o
    a_take = (np.arange(m)[:, None] * d + a_cols).ravel()
    i, j = var_pos[i], var_pos[j]
    band = _Band(var_pos, row_pos, width,
                 np.concatenate([h_take, h_take]),
                 np.concatenate([flat(i, j), flat(j, i)]),
                 np.concatenate([a_take, a_take]),
                 np.concatenate([flat(r, c).ravel(), flat(c, r).ravel()]))
    for arr in band:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)  # every caller shares the cached layout
    return band


def _kkt_solve(rows: QpStructure, h: _Hessian, g: np.ndarray,
               ids) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 0.5 z'hz + g'z with the rows ids held at equality.

    h holds the lower band of H + eps I and its factor. With no rows and a
    factor, z is one dpbtrs back-solve on that factor. Otherwise bound
    rows among ids fix their variable, and the general rows enter a banded
    KKT system in the order of _band_layout, factored by one dgbsv.
    Returns z and the multipliers aligned with ids (a'z >= b convention:
    h z + g = sum lam_i a_i). Raises LinAlgError when the system is
    singular, which includes a variable fixed by two rows.
    """
    h, factor = h
    d = g.shape[0]
    ids = np.asarray(ids, dtype=np.intp)
    if not ids.size and factor is not None:
        z, info = dpbtrs(factor, -g, lower=1)
        if info:
            raise LinAlgError(f"dpbtrs failed (info {info})")
        return z, np.empty(0)
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
    band = _band_layout(h.shape[0] - 1, d, rows.first[base].tobytes(),
                        rows.last[base].tobytes())
    var_pos, row_pos, width = band.var_pos, band.row_pos, band.width

    # the fixed variables' values move to the right-hand side
    rhs = np.empty(d + gen.size)
    rhs[var_pos] = -g - _hz(h, z_fixed)
    rhs[var_pos[fixed]] = z_fixed[fixed]
    rhs[row_pos] = rows.b[gen] - a_gen @ z_fixed
    # dgbsv's band storage, transposed ((i, j) at [j, 2w + i - j]), with w spare rows each side
    margin = np.zeros((rhs.size + 2 * width, 3 * width + 1))
    ab_t = margin[width:width + rhs.size]
    flat = ab_t.reshape(-1)
    flat[band.h_put] = h.ravel(order="F")[band.h_take]
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
    lam[bound] = sign * (_hz(h, z) + g - a_gen.T @ lam_gen)[fixed]
    return z, lam


def _kkt_start(rows: QpStructure, h: _Hessian, g: np.ndarray, ids):
    """(ids, z, lam) of the KKT solve with the rows ids active; None when singular."""
    try:
        return (ids, *_kkt_solve(rows, h, g, ids))
    except LinAlgError:
        return None


def _objective(g: np.ndarray, z: np.ndarray, hz: np.ndarray) -> float:
    """0.5 z'(H + eps I)z + g'z, hz the product (H + eps I) z."""
    return float(0.5 * z @ hz + g @ z)


def _feasibility(rows: QpStructure, slack: np.ndarray) -> float:
    """The largest violation among the rows' slacks a'z - b: |slack| on the
    equality rows, -slack on the others, 0 if none; NaN if a slack is NaN
    (np.maximum and the reductions keep a NaN that Python's max drops)."""
    worst = (-slack[rows.n_eq:]).max(initial=0.0)
    if rows.n_eq:
        worst = np.maximum(np.abs(slack[:rows.n_eq]).max(), worst)
    return float(worst)


def _residuals(rows: QpStructure, hz: np.ndarray, g: np.ndarray, z: np.ndarray,
               active_set, multipliers, slack=None, feasibility=None) -> KktResiduals:
    """KktResiduals of z, hz = (H + eps I) z; slack, if given, holds the
    rows' a'z - b at z, and feasibility, if given, _feasibility of it. An
    inactive row's multiplier is zero, so complementarity and dual
    feasibility are taken over the active inequality rows alone (0 with no
    active row); a NaN slack of an inactive row still shows, in the
    feasibility."""
    ids = np.asarray(active_set, dtype=np.intp)
    grad = hz + g
    slack = _values(rows, z) - rows.b if slack is None else slack
    if feasibility is None:
        feasibility = _feasibility(rows, slack)
    if not ids.size:
        return KktResiduals(float(np.abs(grad).max(initial=0.0)), feasibility, 0.0, 0.0)
    lam = np.asarray(multipliers, dtype=float)
    grad -= _combine(rows, ids, lam)
    ineq = ids >= rows.n_eq
    lam_in = lam[ineq]
    return KktResiduals(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        feasibility=feasibility,
        complementarity=float(np.abs(lam_in * slack[ids[ineq]]).max(initial=0.0)),
        dual_feasibility=max(0.0, -float(lam_in.min(initial=0.0))))


def _row_ids(active_set) -> np.ndarray:
    """active_set as row ids; a ValueError unless a sequence of integers
    (an empty one of any dtype, np.asarray(()) being float)."""
    ids = np.asarray(active_set)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError("an active set must be a sequence of integer row ids")
    return ids.astype(np.intp)


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
    ids = _row_ids(active_set)
    if ids.size and (ids.min() < 0 or ids.max() >= rows.b.size or np.unique(ids).size < ids.size):
        raise ValueError(f"active_set must hold distinct row ids in [0, {rows.b.size})")
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != ids.shape:
        raise ValueError(f"{ids.size} active rows need as many multipliers, got shape {lam.shape}")
    z = np.asarray(z, dtype=float)
    return _residuals(rows, _hz(regularized_hessian(p.H), z), p.g, z, ids, lam)


class QpSolver:
    """The dual active-set method; holds no state, so one solver serves any
    number of problems and callers."""

    def solve(self, p: QpProblem, warm_start=None) -> QpSolution:
        """Solve p, warm-started from an active set if one is given, an empty one
        included; its integer row ids out of range are ignored, any other id
        is a ValueError."""
        rows = expand_constraints(p)
        d = p.dim
        hess = _hessian(p.H)
        if hess.factor is None:
            raise QpDataError("Hessian is not positive definite")
        h_reg = hess.band

        # one start: the equality rows plus the valid warm rows
        start_ids = np.arange(rows.n_eq)
        if warm_start is not None:
            warm = _row_ids(warm_start)
            if warm.size:
                start_rows = np.arange(rows.b.size) < rows.n_eq
                start_rows[warm[(warm >= 0) & (warm < rows.b.size)]] = True
                start_ids = np.flatnonzero(start_rows)
        start = _kkt_start(rows, hess, p.g, start_ids)
        if warm_start is not None:
            sol = self._try_hot_start(p, rows, h_reg, start)
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
        hz = _hz(h_reg, z)
        history = [_objective(p.g, z, hz)]
        b_eq, b_in = rows.b[:rows.n_eq], rows.b[rows.n_eq:]
        eq_gap = np.abs(_values(rows, z)[:rows.n_eq] - b_eq).max(initial=0.0)
        if not eq_gap <= 1e-6 * (1 + np.abs(b_eq).max(initial=0.0)):
            res = _residuals(rows, hz, p.g, z, [], [])
            return QpSolution(z, INFEASIBLE, res, (), np.empty(0), 1, history[0], history)
        # the working set: row ids, the equality rows first, and their multipliers
        row_ids, mult_arr = ids.tolist(), lam
        # a dual step holds every working row at zero (see the loop below)
        held = rows._replace(b=np.zeros_like(rows.b))
        iterations = 1
        max_iterations = 10 * (d + rows.n_in + rows.n_eq)
        status = OPTIMAL

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
                history.append(_objective(p.g, z, _hz(h_reg, z)))
                if t == t2:
                    row_ids.append(rows.n_eq + worst)
                    mult_arr = np.append(mult_arr, u_plus)
                    break
                drop = rows.n_eq + int(np.argmin(ratios))
                del row_ids[drop]
                mult_arr = np.delete(mult_arr, drop)

        hz = _hz(h_reg, z)
        kkt_res = _residuals(rows, hz, p.g, z, row_ids, mult_arr)
        threshold = 1e-9 * (1.0 + float(np.linalg.norm(p.g)))
        if status == OPTIMAL and not kkt_res.max() <= threshold:
            z, hz, mult_arr, kkt_res = self._polish(p, rows, hess, row_ids, z, hz, mult_arr,
                                                    kkt_res)
        if status == OPTIMAL and not kkt_res.max() <= 1e-8 * (1.0 + float(np.linalg.norm(p.g))):
            status = MAX_ITER  # keep the optimal-implies-tight-KKT contract honest
        history.append(_objective(p.g, z, hz))
        return QpSolution(z, status, kkt_res, tuple(row_ids), mult_arr, iterations, history[-1],
                          history)

    def _polish(self, p, rows, hess, row_ids, z0, hz0, mult0, kkt0):
        """Exact KKT re-solve on the final active set to remove drift, then one
        step of iterative refinement: the same KKT system solved for the
        correction, with b - a z on the general rows, 0 on the bound rows
        (whose variables the solve fixes exactly) and the stationarity
        residual as the gradient. Large multipliers magnify the round-off
        left in the active rows' slacks, which complementarity would report.
        Returns (z, H z, multipliers, residuals), the given ones if no better.
        """
        try:
            z, lam = _kkt_solve(rows, hess, p.g, row_ids)
            residual = rows._replace(b=np.where(rows.src < p.dim, 0.0, rows.b - _values(rows, z)))
            grad = _hz(hess.band, z) + p.g - _combine(rows, row_ids, lam)
            dz, dlam = _kkt_solve(residual, hess, grad, row_ids)
        except LinAlgError:
            return z0, hz0, mult0, kkt0  # degenerate final active set; keep iterate
        z, lam = z + dz, lam + dlam
        if np.any(lam[rows.n_eq:] < -1e-9 * (1 + np.abs(lam).max(initial=0.0))):
            return z0, hz0, mult0, kkt0  # polish would leave the dual cone; keep iterate
        hz = _hz(hess.band, z)
        res = _residuals(rows, hz, p.g, z, row_ids, lam)
        if res.max() <= kkt0.max():
            return z, hz, lam, res
        return z0, hz0, mult0, kkt0

    def _try_hot_start(self, p, rows, h_reg, start):
        """The warm start (ids, z, lam) as the solution when it is already
        optimal; None when it is rejected, or singular (start None)."""
        if start is None:
            return None
        ids, z, lam = start
        if ids.size and not (lam[ids >= rows.n_eq] >= -1e-10).all():
            return None
        # one slack pass for the accept rule and the certificate: a largest
        # violation within 1e-9 passes the rule's tolerance of every row,
        # 1e-9 (1 + |b|), so only a larger one is judged row by row
        slack = _values(rows, z) - rows.b
        feasibility = _feasibility(rows, slack)
        if not (feasibility <= 1e-9 or (slack[rows.n_eq:]
                                        >= -1e-9 * (1.0 + np.abs(rows.b[rows.n_eq:]))).all()):
            return None
        hz = _hz(h_reg, z)  # one product for the certificate and the objective
        res = _residuals(rows, hz, p.g, z, ids, lam, slack, feasibility)
        if not res.max() <= 1e-8 * (1.0 + math.sqrt(p.g @ p.g)):
            return None
        obj = _objective(p.g, z, hz)
        return QpSolution(z, OPTIMAL, res, tuple(ids.tolist()), lam, 1, obj, [obj])
