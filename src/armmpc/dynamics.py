"""Rigid-body dynamics of serial chains of revolute joints.

Each chain state's dynamics come from one spatial pass: the recursive
Newton-Euler and composite-rigid-body algorithms (Featherstone, Rigid Body
Dynamics Algorithms, 2008) in the world-frame form of Carpentier & Mansard
(Analytical derivatives of rigid body dynamics algorithms, 2018), spatial
vectors [angular; linear] taken about the state's own end effector p. Every
quantity is read from the chain state's world frames: no motion transform
is built, and the recursions over the joints and the sums over the links
past each joint are prefix sums and products with a triangular ones matrix,
with no Python loop over the joints. About p the moment arms are the arm's
own size; about the world origin, the wrist's torques and M's small wrist
entries would come out of large moments that cancel, an error that forward
dynamics amplifies. About p, too, S's linear rows are J's.

The pass gives M, b, g and J-dot qd; forward dynamics solves M qdd =
u - b through LAPACK's Cholesky factorization (dpotrf/dpotrs). A closed-form
pass batched over a stack of states reads their S, V, crm(V), S-dot and link
inertias and returns [d tau/dq | d tau/dqd | tau]: one pass linearizes a
horizon, and inverse dynamics is a batch of one. checks.py holds the
oracles: the link-frame Newton-Euler pass and central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import ChainState, _crm, _cross_operator, _cross, _cross_table
from .robot_model import RobotModel


class FactorizationError(RuntimeError):
    """The mass matrix failed its SPD factorization (invalid inertias)."""


_ICRF_TABLE = _cross_table(((0, 0, 0, -1.0), (0, 3, 3, -1.0), (3, 0, 3, -1.0)))
# the (0, 3) block of a 6 x 6 operator: skew(v), for the Gram factor of a
# link's spatial inertia
_COM_TABLE = _cross_table(((0, 3, 0, 1.0),))


def _icrf(f: np.ndarray) -> np.ndarray:
    """Matrix form of the force cross product in its first argument.

    Satisfies _icrf(f) @ m = -_crm(m)' @ f, the force cross product m x* f,
    for all motion vectors m; f is one 6-vector or a (..., 6) stack, giving
    (..., 6, 6).
    """
    return _cross_operator(np.asarray(f), _ICRF_TABLE)


def _finite(x: np.ndarray, name: str) -> np.ndarray:
    """x itself, or a ValueError naming it when an entry is not finite.

    Call-free on the hot path: a NaN or infinite entry makes the sum NaN or
    infinite, and then total - total is NaN; only then is x scanned, so that
    a finite x whose sum overflows passes."""
    total = sum(x.ravel().tolist())
    if total - total != 0.0 and not np.isfinite(x).all():
        raise ValueError(f"{name} is not finite: {x!r}")
    return x


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products of (B, r, c) and (B, c) stacks."""
    return (mats @ vecs[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class DynamicsDerivatives:
    """Partial derivatives of inverse and forward dynamics.

    Each block is (n, n) at one state, or (B, n, n) stacked over a batch of
    states; indexing a batch gives one member's blocks. The forward-dynamics
    blocks solve M dqdd_dx = -dtau_dx against the mass matrix, and dqdd_du is
    Minv (from the Cholesky factor), so the identity dqdd_dx = -Minv dtau_dx
    compares two separate computations.
    """

    dtau_dq: np.ndarray
    dtau_dqd: np.ndarray
    dqdd_dq: np.ndarray
    dqdd_dqd: np.ndarray
    dqdd_du: np.ndarray

    def __getitem__(self, k) -> "DynamicsDerivatives":
        return DynamicsDerivatives(*(getattr(self, f.name)[k] for f in fields(self)))


class RigidBodyState(ChainState):
    """A chain state at (q, qd), qd checked and kept like q (a ValueError if
    either is not finite), with the dynamics at it, filled by its
    constructor; without qd it is at rest.

    One spatial pass about the end effector p: the motion subspaces S
    (subspace), link velocities V (vel), crm(V) (crm_vel), S-dot
    (subspace_dot) and link inertias (inertia), which the derivative pass
    reads too, give M with its Cholesky factor and M^-1 (minv), b, g and
    J-dot qd; S's linear rows are the chain state's J's. J-dot is formed when
    asked for.
    """

    def __init__(self, model: RobotModel, q, qd=None):
        super().__init__(model, q)
        c = self.chain
        n = c.n
        self.qd = qd = np.zeros(n) if qd is None else model.check_q(qd, "qd")
        # _finite's test, inline on the hot path; refused before the velocity
        # pass, as M's check refuses such a q
        total = sum(qd.tolist())
        if total - total != 0.0 and not np.isfinite(qd).all():
            raise ValueError(f"qd is not finite: {qd!r}")
        arm = self.ee_pos - self.origin_w
        # S_k = [z_k; z_k x (p - o_k)], J's columns with their halves swapped
        s = self.subspace = np.empty((n, 6))
        s[:, :3] = self.axis_w
        s[:, 3:] = self._jacobian[:3].T

        # per link the rows [V_i; A_i; a_base]: V_i = sum_{k<=i} S_k qd_k, and with
        # S-dot_k = V_k x S_k, A_i = sum_{k<=i} S-dot_k qd_k, at qdd = 0 less gravity
        rows = np.empty((n, 3, 6))
        vel = self.vel = rows[:, 0]
        np.add.accumulate(s * qd[:, None], axis=0, out=vel)
        crm_v = self.crm_vel = _crm(vel)
        s_dot = self.subspace_dot = (crm_v @ s[:, :, None])[:, :, 0]
        np.add.accumulate(s_dot * qd[:, None], axis=0, out=rows[:, 1])
        rows[:, 2] = c.a_base
        # the link inertias about p, I_i = G_i G_i', G_i = [[R_i L_i, sqrt(m_i) [c_i - p]x],
        # [0, sqrt(m_i) 1]] with c_i the world COM and L_i L_i' the COM inertia
        com = (self.rot_w @ c.com[:, :, None])[:, :, 0] - arm
        gram = _cross_operator(c.root_mass[:, None] * com, _COM_TABLE)
        np.matmul(self.rot_w, c.root_inertia, out=gram[:, :3, :3])
        gram[:, 3:, 3:] = c.root_mass_eye
        # rows [I_i; F_i; G_i] per link: the forces F_i = I_i A_i + V_i x* I_i V_i
        # and G_i = I_i a_base at qdd = 0 (I_i is symmetric: rows @ I_i is I_i rows')
        link = np.empty((n, 8, 6))
        inertia = self.inertia = link[:, :6]
        np.matmul(gram, gram.swapaxes(-1, -2), out=inertia)
        force = rows @ inertia
        link[:, 6] = force[:, 1] - (force[:, None, 0] @ crm_v)[:, 0]
        link[:, 7] = force[:, 2]
        # [IC_k; Fc_k; Gc_k], summed over the links i >= k (moves' [link, joint]
        # transposed), against S_k: IC_k S_k, and b - g and g at joint k
        comp = (c.moves.T @ link.reshape(n, 48)).reshape(n, 8, 6)
        proj = (comp @ s[:, :, None])[:, :, 0]
        # b(q, qd) and its gravity part g(q); b(q, 0) is g(q) to the bit
        self.bias = proj[:, 6] + proj[:, 7]
        self.gravity = proj[:, 7]
        # M_kj = (IC_k S_k) . S_j for k >= j (moves' lower triangle), mirrored
        lower = proj[:, :6] @ s.T
        self.mass = np.where(c.moves, lower, lower.T)
        if not np.isfinite(self.mass).all():
            raise ValueError(f"mass matrix is not finite at q={self.q!r}")
        # lower Cholesky factor of M (upper triangle not cleared)
        self.factor, info = dpotrf(self.mass, lower=1, clean=0)
        if info != 0:
            raise FactorizationError(f"mass matrix is not SPD at q={self.q!r}: dpotrf info {info}")
        self.minv = self._solve(np.eye(n))
        # J-dot qd = [a_ee; alpha_n], the end effector's acceleration at
        # qdd = 0: the last link's A at p, with omega x v as p moves
        acc = rows[-1, 1]
        self.jdot_qd = np.concatenate([acc[3:] + crm_v[-1, 3:, 3:] @ vel[-1, 3:], acc[:3]])

    def jacobian_dot(self) -> np.ndarray:
        """J-dot along qd, 6 x n: S-dot, taken about the fixed point p, with
        z_k x v_ee added to its linear rows, since J's point moves with the
        end effector."""
        s_dot = self.subspace_dot
        return np.concatenate([(s_dot[:, 3:] + _cross(self.axis_w, self.vel[-1, 3:])).T,
                               s_dot[:, :3].T])

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs through the Cholesky factor."""
        return dpotrs(self.factor, rhs, lower=1)[0]

    def forward_dynamics(self, u: np.ndarray) -> np.ndarray:
        """Joint accelerations solving M qdd + b = u."""
        return self._solve(u - self.bias)

    def semi_implicit_step(self, u: np.ndarray, dt: float):
        """One semi-implicit Euler step from this state: velocity first, then position.

        Returns the next chain state and the accelerations solved at this state.
        """
        qdd = self.forward_dynamics(u)
        qd = self.qd + dt * qdd
        return RigidBodyState(self.model, self.q + dt * qd, qd), qdd


def _spatial(states) -> list[np.ndarray]:
    """The states' S, V, crm(V), S-dot, link inertias and qd, each stacked
    over the states, as the derivative pass reads them."""
    return [np.array([getattr(st, name) for st in states])
            for name in ("subspace", "vel", "crm_vel", "subspace_dot", "inertia", "qd")]


def _id_derivatives(chain, s: np.ndarray, vel: np.ndarray, crm_v: np.ndarray,
                    s_dot: np.ndarray, inertia: np.ndarray, qd: np.ndarray,
                    qdd: np.ndarray) -> np.ndarray:
    """Inverse dynamics and its derivatives at a stack of B states,
    [d tau/dq | d tau/dqd | tau], shape (B, n, 2n + 1).

    s, vel and s_dot are (B, n, 6), crm_v and inertia (B, n, 6, 6), qd and
    qdd (B, n), gathered by _spatial from each state's own spatial pass,
    about its own end effector p. The formulas below hold about any point
    fixed in the world, and give the same tau and derivatives about every
    such point, so the states need not share one; about p the moment arms
    are the arm's own size, not its distance from the world origin.

    With x the motion and x* the force cross product, per joint k: S_k,
    V_k = sum_{l<=k} S_l qd_l, S'_k = V_k x S_k, A_k = a_base + sum_{l<=k}
    (S_l qdd_l + S'_l qd_l) and u_k = A_k x S_k + V_k x S'_k; per link, with
    I_i its spatial inertia and h_i = I_i V_i: F_i = I_i A_i + V_i x* h_i
    and B_i = crf(V_i) I_i - I_i crm(V_i) + icrf(h_i); summed over the links
    i >= m, IC_m, BC_m and Fc_m. Then tau_j = S_j . Fc_j and, with m =
    max(j, k), d tau_j/dq_k = S_j . (IC_m u_k + BC_m S'_k), plus S_k x* Fc_k
    inside the bracket when j < k, and d tau_j/dqd_k = S_j . (2 IC_m S'_k +
    BC_m S_k).
    """
    b, n = qd.shape
    motion = np.empty((b, n, 6, 2))  # [V | A] of every link
    motion[..., 0] = vel
    acc = np.add.accumulate(s * qdd[..., None] + s_dot * qd[..., None], axis=1,
                            out=motion[..., 1])
    acc += chain.a_base
    u = _mv(_crm(acc), s) + _mv(crm_v, s_dot)

    # [I | B | F] of every link
    link = np.empty((b, n, 6, 13))
    link[..., :6] = inertia
    # crf(V) = -crm(V)', and crf(V) I = -(I crm(V))' as I is symmetric
    iva = inertia @ motion
    h = iva[..., 0]
    link[..., 12] = iva[..., 1] - _mv(crm_v.swapaxes(-1, -2), h)
    i_crm = inertia @ crm_v
    link[..., 6:12] = _icrf(h) - i_crm - i_crm.swapaxes(-1, -2)
    # [IC | BC | Fc]: the sums over the links i >= m, moves' [link, joint] transposed
    comp = (chain.moves.T @ link.reshape(b, n, 78)).reshape(b, n, 6, 13)
    fc = comp[..., 12]

    out = np.empty((b, n, 2 * n + 1))
    out[..., -1] = (s[..., None, :] @ fc[..., None])[..., 0, 0]
    # per joint k the columns [u_k, 2 S'_k] over [S'_k, S_k] that [IC | BC] multiplies
    cols = np.empty((b, n, 12, 2))
    cols[..., :6, 0] = u
    cols[..., :6, 1] = 2.0 * s_dot
    cols[..., 6:, 0] = s_dot
    cols[..., 6:, 1] = s
    # j >= k: (S_j' [IC_j | BC_j]) cols_k; j < k: S_j' ([IC_k | BC_k] cols_k + ...)
    near = (s[..., None, :] @ comp[..., :12])[..., 0, :]
    lower = near @ cols.transpose(0, 2, 3, 1).reshape(b, 12, 2 * n)
    far = comp[..., :12] @ cols
    far[..., 0] += _mv(_icrf(fc), s)  # S_k x* Fc_k: joint k also turns the forces past it
    upper = s @ far.transpose(0, 2, 3, 1).reshape(b, 6, 2 * n)
    # [j, (q or qd, k)]: the lower triangle, j >= k, in both halves
    np.copyto(upper.reshape(b, n, 2, n), lower.reshape(b, n, 2, n),
              where=chain.moves[:, None] != 0)
    out[..., :-1] = upper
    return out


def bias_forces(model: RobotModel, q, qd) -> np.ndarray:
    """Coriolis/centrifugal plus gravity forces b(q, qd) = ID(q, qd, 0)."""
    return RigidBodyState(model, q, qd).bias


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix from the composite inertias about the end effector."""
    return RigidBodyState(model, q).mass


def forward_dynamics(model: RobotModel, q, qd, u) -> np.ndarray:
    """Joint accelerations solving M(q) qdd + b(q, qd) = u; a ValueError for
    a q, qd or u that is not finite."""
    u = _finite(model.check_q(u, "u"), "u")
    return RigidBodyState(model, q, qd).forward_dynamics(u)


def dynamics_derivatives(states, qdd) -> DynamicsDerivatives:
    """Dynamics derivative blocks at one chain state, or with a leading batch
    axis at a sequence of B states of one model.

    qdd is (n,) or (B, n), each row consistent with its state's nominal
    torque (the caller's contract). The analytic inverse-dynamics blocks of
    all states come from one batched pass over their spatial quantities.
    Raises ValueError for an empty batch, states of two models, or a qdd of
    another shape or that is not finite.
    """
    single = isinstance(states, RigidBodyState)
    states = (states,) if single else states
    if len(states) == 0:
        raise ValueError("states is an empty batch; at least one state is needed")
    model, n = states[0].model, states[0].model.n
    if any(st.model is not model for st in states):
        raise ValueError("states belong to more than one model")
    qdd = np.asarray(qdd, dtype=float)
    if qdd.shape != ((n,) if single else (len(states), n)):
        raise ValueError(f"qdd must hold one ({n},) row per state, got shape {qdd.shape}")
    _finite(qdd, "qdd")
    dtau = _id_derivatives(states[0].chain, *_spatial(states), qdd.reshape(-1, n))[:, :, :-1]
    minv = np.array([st.minv for st in states])
    minv = 0.5 * (minv + minv.transpose(0, 2, 1))
    dqdd = -np.linalg.solve(np.array([st.mass for st in states]), dtau)
    der = DynamicsDerivatives(dtau_dq=dtau[:, :, :n], dtau_dqd=dtau[:, :, n:],
                              dqdd_dq=dqdd[:, :, :n], dqdd_dqd=dqdd[:, :, n:], dqdd_du=minv)
    return der[0] if single else der
