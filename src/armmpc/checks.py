"""Self-verification suites: derivative cross-checks, the world-frame pass of
the dynamics and the QP brute-force oracle.

These back the `check` CLI command and are reused by the test suite. The
oracles here are deliberately independent of the implementations they judge:
the QP reference enumerates active sets instead of iterating, the dynamics
references differentiate numerically, and the world-frame passes are judged
by the recursive Newton-Euler pass in link frames (rnea_link_frame, with its
motion transforms) and by a difference of the Jacobian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import RigidBodyState, _icrf, _mv, dynamics_derivatives, forward_dynamics
from .kinematics import _crm, _skew, geometric_jacobian
from .qp import QpProblem, QpSolver, regularized_hessian
from .robot_model import RobotModel


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e}) {self.detail}"


def lower_band(h: np.ndarray, width: int) -> np.ndarray:
    """The lower band of a dense symmetric h as QpProblem.H stores it,
    ab[i, j] = h[j + i, j] for i <= width; entries farther out are left out."""
    return np.array([np.append(np.diagonal(h, -i), np.zeros(i)) for i in range(width + 1)])


def dense_hessian(ab: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix whose lower band is ab (QpProblem.H's storage)."""
    low = sum(np.diag(ab[i, :ab.shape[1] - i], -i) for i in range(ab.shape[0]))
    return low + np.tril(low, -1).T


def dense_rows(p: QpProblem) -> tuple[np.ndarray, np.ndarray, int]:
    """The canonical rows of p written out densely, as (a, b, n_eq): a z >= b
    row by row, the first n_eq rows held at equality, in the solver's order
    (pinned bounds, pinned Ain rows; then finite lower and upper bounds,
    finite Ain lowers and uppers, pins skipped). Built here, apart from the
    solver's own rows, so that the oracles share no row code with it."""
    eye = np.eye(p.dim)
    pinned = np.isfinite(p.lb) & (p.lb == p.ub)
    pinned_rows = np.isfinite(p.lin) & (p.lin == p.uin)
    eq = [(eye[pinned], p.lb[pinned]), (p.Ain[pinned_rows], p.lin[pinned_rows])]
    lower, upper = np.isfinite(p.lb) & ~pinned, np.isfinite(p.ub) & ~pinned
    low_rows, up_rows = np.isfinite(p.lin) & ~pinned_rows, np.isfinite(p.uin) & ~pinned_rows
    ineq = [(eye[lower], p.lb[lower]), (-eye[upper], -p.ub[upper]),
            (p.Ain[low_rows], p.lin[low_rows]), (-p.Ain[up_rows], -p.uin[up_rows])]
    return (np.vstack([a for a, _ in eq + ineq]), np.concatenate([b for _, b in eq + ineq]),
            sum(b.size for _, b in eq))


def solve_qp_by_enumeration(p: QpProblem):
    """Global optimum by exhaustive active-set enumeration.

    Solves the equality-constrained KKT system for every subset of the
    inequality rows, keeps the feasible candidates, and returns the feasible
    minimizer. Exponential in the constraint count; testing tool only.
    Uses the same regularized Hessian as the solver, written out densely, so
    objectives agree.
    Returns (z, objective) or (None, inf) when no subset yields a feasible
    point.
    """
    a, b, n_eq = dense_rows(p)
    a_eq, b_eq, a_in, b_in = a[:n_eq], b[:n_eq], a[n_eq:], b[n_eq:]
    d = p.dim
    h_reg = dense_hessian(regularized_hessian(p.H))
    best = None
    best_obj = np.inf
    all_in = range(b_in.size)
    for size in range(0, min(d - n_eq, b_in.size) + 1):
        for subset in itertools.combinations(all_in, size):
            a_act = np.vstack([a_eq, a_in[list(subset)]])
            b_act = np.concatenate([b_eq, b_in[list(subset)]])
            k = a_act.shape[0]
            kkt = np.zeros((d + k, d + k))
            kkt[:d, :d] = h_reg
            if k:
                kkt[:d, d:] = a_act.T
                kkt[d:, :d] = a_act
            rhs = np.concatenate([-p.g, b_act])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            z = sol[:d]
            if n_eq and np.abs(a_eq @ z - b_eq).max() > 1e-8:
                continue
            if b_in.size and np.min(a_in @ z - b_in) < -1e-9 * (1 + np.abs(b_in).max()):
                continue
            obj = float(0.5 * z @ h_reg @ z + p.g @ z)
            if obj < best_obj:
                best_obj = obj
                best = z
    return best, best_obj


def random_qp(rng: np.random.Generator, dim: int, n_ineq: int, with_eq: bool = False) -> QpProblem:
    """A random strictly convex QP with a mix of bounds and general rows, its
    dense H passed as a full-width band; with_eq adds a pinned general row
    (an equality) ahead of the others."""
    m = rng.standard_normal((dim, dim))
    h = m @ m.T + dim * np.eye(dim)
    g = 3.0 * rng.standard_normal(dim)
    n_general = n_ineq // 2
    n_bounds = n_ineq - n_general
    lb = np.full(dim, -np.inf)
    ub = np.full(dim, np.inf)
    for i in rng.choice(dim, size=min(n_bounds, dim), replace=False):
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
        lb[i], ub[i] = lo, hi + 0.1
    a_in = rng.standard_normal((n_general, dim))  # (0, dim) without general rows
    mid = rng.uniform(-1.0, 1.0, size=n_general)
    width = rng.uniform(0.5, 3.0, size=n_general)
    lin, uin = mid - width, mid + width
    if with_eq and dim >= 2:
        row = rng.standard_normal((1, dim))
        pin = rng.uniform(-0.5, 0.5, size=1)
        a_in, lin, uin = np.vstack([row, a_in]), np.concatenate([pin, lin]), np.concatenate([pin, uin])
    return QpProblem(H=lower_band(h, dim - 1), g=g, lb=lb, ub=ub, Ain=a_in, lin=lin, uin=uin)


# run_qp_check's random QPs: 2 to QP_MAX_DIM variables and 0 to QP_MAX_INEQ
# inequality rows, few enough for the oracle's enumeration
QP_MAX_DIM = 6
QP_MAX_INEQ = 8


def run_qp_check(n_problems: int = 500, seed: int = 0, tol: float = 1e-8) -> CheckResult:
    """Random QPs against the exhaustive active-set oracle + KKT residuals."""
    rng = np.random.default_rng(seed)
    solver = QpSolver()
    worst = 0.0
    detail = ""
    for i in range(n_problems):
        dim = int(rng.integers(2, QP_MAX_DIM + 1))
        n_ineq = int(rng.integers(0, QP_MAX_INEQ + 1))
        prob = random_qp(rng, dim, n_ineq, with_eq=bool(rng.integers(0, 2)))
        sol = solver.solve(prob)
        ref, _ = solve_qp_by_enumeration(prob)
        if ref is None:
            if sol.status == "optimal":
                return CheckResult("qp_vs_enumeration", False, np.inf, tol,
                                   f"problem {i}: solver claims optimal, oracle finds none")
            continue
        if sol.status != "optimal":
            return CheckResult("qp_vs_enumeration", False, np.inf, tol,
                               f"problem {i}: solver status {sol.status}, oracle solved")
        err = float(np.linalg.norm(sol.z_star - ref, ord=np.inf))
        kkt_max = sol.kkt.max() / (1.0 + float(np.linalg.norm(prob.g)))
        worst = float(np.max([worst, err, kkt_max]))  # keeps a NaN, which fails below
        if not (err <= tol and kkt_max <= tol):
            detail = f"problem {i} (dim={dim}, m={n_ineq})"
            return CheckResult("qp_vs_enumeration", False, worst, tol, detail)
    return CheckResult("qp_vs_enumeration", True, worst, tol, f"{n_problems} problems")


def _central_difference(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of fn at x, column j (fn(x + h e_j) - fn(x - h e_j)) / 2h."""
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def _random_states(model: RobotModel, n_states: int, seed: int):
    """n_states random chain states at (q, qd), q inside the joint ranges,
    each with a random torque u."""
    rng = np.random.default_rng(seed)
    n = model.n
    lo, hi = model.limits.q_min, model.limits.q_max
    for _ in range(n_states):
        q = lo + (hi - lo) * (0.1 + 0.8 * rng.random(n))
        yield RigidBodyState(model, q, rng.standard_normal(n)), 10.0 * rng.standard_normal(n)


def run_dynamics_derivative_check(model: RobotModel, n_states: int = 200, seed: int = 0,
                                  tol: float = 1e-5) -> CheckResult:
    """Analytic forward-dynamics derivatives vs central finite differences."""
    worst = 0.0
    h = 1e-6
    for i, (st, u) in enumerate(_random_states(model, n_states, seed)):
        q, qd = st.q, st.qd
        der = dynamics_derivatives(st, st.forward_dynamics(u))
        for block, wrt, fn, x in (
                (der.dqdd_dq, "q", lambda x: forward_dynamics(model, x, qd, u), q),
                (der.dqdd_dqd, "qd", lambda x: forward_dynamics(model, q, x, u), qd),
                (der.dqdd_du, "u", lambda x: forward_dynamics(model, q, qd, x), u)):
            fd = _central_difference(fn, x, h)
            rel = float(np.linalg.norm(block - fd) / (1.0 + np.linalg.norm(fd)))
            worst = float(np.maximum(worst, rel))  # keeps a NaN, which fails below
            if not rel <= tol:
                return CheckResult("dynamics_derivatives_vs_fd", False, worst, tol,
                                   f"state {i}, block d/d{wrt}")
    return CheckResult("dynamics_derivatives_vs_fd", True, worst, tol, f"{n_states} states")


def run_identity_check(model: RobotModel, n_states: int = 200, seed: int = 1,
                       tol: float = 1e-10) -> CheckResult:
    """Forward/inverse derivative identity dqdd_dx = -Minv dtau_dx, with
    Minv = dqdd_du."""
    worst = 0.0
    for i, (st, u) in enumerate(_random_states(model, n_states, seed)):
        der = dynamics_derivatives(st, st.forward_dynamics(u))
        for dfd, did in ((der.dqdd_dq, der.dtau_dq), (der.dqdd_dqd, der.dtau_dqd)):
            res = float(np.linalg.norm(dfd + der.dqdd_du @ did) / (1.0 + np.linalg.norm(did)))
            worst = float(np.maximum(worst, res))  # keeps a NaN, which fails below
            if not res <= tol:
                return CheckResult("fd_id_derivative_identity", False, worst, tol, f"state {i}")
    return CheckResult("fd_id_derivative_identity", True, worst, tol, f"{n_states} states")


def motion_transforms(local: np.ndarray) -> np.ndarray:
    """Motion transforms X_k (parent link frame into link k) of a (B, n, 4, 4)
    stack of local homogeneous transforms, shape (B, n, 6, 6)."""
    rt = local[..., :3, :3].swapaxes(-1, -2)
    xs = np.zeros(local.shape[:-2] + (6, 6))
    xs[..., :3, :3] = rt
    xs[..., 3:, 3:] = rt
    xs[..., 3:, :3] = -rt @ _skew(local[..., :3, 3])
    return xs


def rnea_link_frame(model: RobotModel, local: np.ndarray, qd: np.ndarray,
                    qdd: np.ndarray) -> np.ndarray:
    """Inverse dynamics and its derivatives at a stack of B states by the
    recursive Newton-Euler passes in link frames, [d tau/dq | d tau/dqd |
    tau], shape (B, n, 2n + 1): the oracle of dynamics' world-frame pass.

    local is the (B, n, 4, 4) stack of the states' local transforms
    (ChainState.local), qd and qdd are (B, n). Each link's velocity,
    acceleration and force is carried beside its derivatives by q and qd
    (Carpentier & Mansard, 2018) through the motion transforms, with
    spatial vectors [angular; linear] in body frames; columns 0..n-1 of every
    (B, 6, 2n) intermediate are derivatives by q, columns n..2n-1 by qd.
    """
    b, n = qd.shape
    xs = motion_transforms(local)
    subspace = np.hstack([[j.axis for j in model.joints], np.zeros((n, 3))])
    crm_s = _crm(subspace)  # _crm(s * qd) = qd * crm_s; s's force cross operator is -crm_s'
    # each link's spatial inertia about its frame origin
    inertia = np.empty((n, 6, 6))
    for k, link in enumerate(model.links):
        cx = _skew(link.com)
        inertia[k, :3, :3] = link.inertia_tensor + link.mass * (cx @ cx.T)
        inertia[k, :3, 3:] = link.mass * cx
        inertia[k, 3:, :3] = link.mass * cx.T
        inertia[k, 3:, 3:] = link.mass * np.eye(3)
    v_prev = np.zeros((b, 6))
    a_prev = np.broadcast_to(np.concatenate([np.zeros(3), -model.gravity]), (b, 6))
    dv_prev = np.zeros((b, 6, 2 * n))
    da_prev = np.zeros((b, 6, 2 * n))
    # per link: [df | f], the force derivatives with the force as last column
    forces = []
    for k in range(n):
        x, s = xs[:, k], subspace[k]
        qd_k = qd[:, k, None]
        vj = qd_k * s
        xv = _mv(x, v_prev)
        xa = _mv(x, a_prev)
        v = xv + vj
        crm_v = _crm(v)
        crf_v = -crm_v.transpose(0, 2, 1)
        a = xa + qdd[:, k, None] * s + _mv(crm_v, vj)

        dv = x @ dv_prev
        dv[:, :, k] -= xv @ crm_s[k].T
        dv[:, :, n + k] += s
        da = x @ da_prev - qd_k[..., None] * (crm_s[k] @ dv)
        da[:, :, k] -= xa @ crm_s[k].T
        da[:, :, n + k] += crm_v @ s

        iv = v @ inertia[k].T
        blk = np.empty((b, 6, 2 * n + 1))
        blk[:, :, -1] = a @ inertia[k].T + _mv(crf_v, iv)
        blk[:, :, :-1] = inertia[k] @ da + (_icrf(iv) + crf_v @ inertia[k]) @ dv
        forces.append(blk)
        v_prev, a_prev, dv_prev, da_prev = v, a, dv, da

    tau = np.empty((b, n, 2 * n + 1))
    for k in range(n - 1, -1, -1):
        blk = forces[k]
        tau[:, k] = subspace[k] @ blk
        if k > 0:
            # the joint-k rotation also turns the force passed to the parent
            blk[:, :, k] -= blk[:, :, -1] @ crm_s[k]
            forces[k - 1] += xs[:, k].transpose(0, 2, 1) @ blk
    return tau


# run_world_pass_check's tolerances: b and M against Newton-Euler, to
# round-off; J-dot qd against a central difference of J, good to about 1e-10
WORLD_PASS_TOL_BIAS = 1e-10
WORLD_PASS_TOL_MASS = 1e-10
WORLD_PASS_TOL_JDOT = 1e-8


def run_world_pass_check(model: RobotModel, n_states: int = 200,
                         seed: int = 0) -> list[CheckResult]:
    """RigidBodyState's b against the link-frame Newton-Euler pass at qdd = 0,
    its M against that pass at qd = 0, column j at qdd = e_j less qdd = 0,
    and its J-dot qd against a central difference of J along qd (step 1e-6),
    as |got - ref| / (1 + |ref|) over random states."""
    n = model.n
    worst = np.zeros(3)
    # one oracle batch per state: (qd, 0), then (0, 0) and (0, e_j)
    qdd = np.vstack([np.zeros((2, n)), np.eye(n)])
    for st, _ in _random_states(model, n_states, seed):
        q, qd = st.q, st.qd
        tau = rnea_link_frame(model, np.broadcast_to(st.local, (n + 2,) + st.local.shape),
                              np.vstack([qd, np.zeros((n + 1, n))]), qdd)[:, :, -1]
        fd = _central_difference(lambda t: geometric_jacobian(model, q + t * qd) @ qd,
                                 np.zeros(1), 1e-6)[:, 0]
        for i, (got, ref) in enumerate(((st.bias, tau[0]), (st.mass, (tau[2:] - tau[1]).T),
                                        (st.jdot_qd, fd))):
            # np.maximum keeps a NaN, so that it fails the check
            worst[i] = np.maximum(worst[i], np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(ref)))
    return [CheckResult(name, bool(w <= tol), float(w), tol, f"{n_states} states")
            for name, w, tol in (("world_pass_bias_vs_rnea", worst[0], WORLD_PASS_TOL_BIAS),
                                 ("world_pass_mass_vs_rnea", worst[1], WORLD_PASS_TOL_MASS),
                                 ("world_pass_jdot_qd_vs_fd", worst[2], WORLD_PASS_TOL_JDOT))]


CHECK_NAMES = ("dynamics", "qp", "identity", "world_pass")


def run_checks(model: RobotModel, which=CHECK_NAMES, seed: int = 0) -> list[CheckResult]:
    results = []
    if "dynamics" in which:
        results.append(run_dynamics_derivative_check(model, seed=seed))
    if "qp" in which:
        results.append(run_qp_check(seed=seed))
    if "identity" in which:
        results.append(run_identity_check(model, seed=seed + 1))
    if "world_pass" in which:
        results += run_world_pass_check(model, seed=seed)
    return results
