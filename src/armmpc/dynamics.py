"""Rigid-body dynamics of serial chains of revolute joints.

M, b, g, the end-effector Jacobian J, J-dot and J-dot qd come from one
world-frame pass per chain state over a stack of points (the joint origins
after the first, the link COMs and the end effector): their Jacobians give
M = sum_i m_i Jv_i'Jv_i + Jw_i'I_i Jw_i and, with the accelerations and
column rates that qd alone causes, b, J-dot and J-dot qd (Featherstone,
Rigid Body Dynamics Algorithms, 2008, the Jacobian forms of M and C qd).
Forward dynamics solves M qdd = u - b through a Cholesky factorization
(LAPACK dpotrf/dpotrs).

Inverse dynamics and the derivatives that trajectory linearization needs
come from one closed-form pass in the world frame, batched over a stack of
states (Carpentier & Mansard, Analytical derivatives of rigid body dynamics
algorithms, 2018, the form Pinocchio uses). Spatial vectors are ordered
[angular; linear] and taken at the world origin, so every joint's motion
subspace, every link's velocity, acceleration and inertia, and every force
is read from the chain state's world frames alone: no motion transform is
built, and the sums over the links past each joint are one product with a
triangular ones matrix, so the pass has no Python loop over the joints. It
returns [d tau/dq | d tau/dqd | tau]; one pass linearizes a whole horizon,
and a single inverse-dynamics call is a batch of one. checks.py holds its
oracles: the link-frame recursive Newton-Euler pass, with the motion
transforms of the chain's local transforms, and central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import ChainState, _crm, _cross_operator, _cross, _cross_slots
from .robot_model import RobotModel


class FactorizationError(RuntimeError):
    """The mass matrix failed its SPD factorization (invalid inertias)."""


_ICRF_SLOTS = _cross_slots(((0, 0, 0, -1.0), (0, 3, 3, -1.0), (3, 0, 3, -1.0)))


def _icrf(f: np.ndarray) -> np.ndarray:
    """Matrix form of the force cross product in its first argument.

    Satisfies _icrf(f) @ m = -_crm(m)' @ f, the force cross product m x* f,
    for all motion vectors m; f is one 6-vector or a (..., 6) stack, giving
    (..., 6, 6).
    """
    return _cross_operator(np.asarray(f), _ICRF_SLOTS)


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

    The world-frame pass stacks 2n points (the joint origins 1..n-1, the link
    COMs and the end effector) and takes all their linear Jacobian columns in
    one cross product, masked by the joints that move each point; the COMs'
    [Jv | Jw] rows give M, with its Cholesky factor, and the last row J.
    b, g, J-dot qd and the rates behind J-dot follow from the point
    velocities and column rates, formed once; M^-1 (minv) is solved from the
    factor.
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
        axis_w, origin_w, rot_w = self.axis_w, self.origin_w, self.rot_w
        # each point minus every joint origin, and its linear Jacobian
        # columns, (2n, n, 3) each, [point, joint]; the COMs' [Jv | Jw],
        # (n, n, 6), [link, joint]; and K_i = R_i L_i with K_i K_i' the
        # world inertia R_i I_i R_i'
        com_w = origin_w + (rot_w @ c.com[:, :, None])[:, :, 0]
        arm = np.concatenate([origin_w[1:], com_w, self.ee_pos[None]])[:, None, :] - origin_w
        cols = _cross(axis_w, arm) * c.point_moves[:, :, None]
        jac = np.concatenate([cols[n - 1:-1], c.moves[:, :, None] * axis_w], axis=2)
        k = rot_w @ c.root_inertia
        self._ee_cols = cols[-1]

        # M = sum_i m_i Jv_i'Jv_i + Jw_i'(R_i I_i R_i')Jw_i: one Gram product
        # A A', with A's rows the joints and its columns sqrt(m_i) Jv_i and
        # Jw_i K_i for every link i
        a = np.concatenate([jac[:, :, :3] * c.root_mass[:, None, None], jac[:, :, 3:] @ k], axis=2)
        a = a.transpose(1, 0, 2).reshape(n, 6 * n)
        self.mass = a @ a.T
        if not np.isfinite(self.mass).all():
            raise ValueError(f"mass matrix is not finite at q={self.q!r}")
        # lower Cholesky factor of M (upper triangle not cleared)
        self.factor, info = dpotrf(self.mass, lower=1, clean=0)
        if info != 0:
            raise FactorizationError(f"mass matrix is not SPD at q={self.q!r}: dpotrf info {info}")
        self.minv = self._solve(np.eye(n))

        # the accelerations a_i, alpha_i that qd alone causes: b - g and g
        # are one contraction of the COMs' [Jv | Jw] with the wrenches
        # (m_i a_i; I_i alpha_i + omega_i x I_i omega_i) and (-m_i g; 0)
        spin = np.zeros((n + 1, 3, 2))  # [omega | alpha] of the base and the n links
        np.add.accumulate(axis_w * qd[:, None], axis=0, out=spin[1:, :, 0])
        # each axis is fixed in the link before its joint
        axis_dot = _cross(spin[:-1, :, 0], axis_w)
        np.add.accumulate(axis_dot * qd[:, None], axis=0, out=spin[1:, :, 1])
        vel = qd @ cols
        origin_dot = np.zeros((n, 3))  # joint k's origin is point k - 1; joint 0's is fixed
        origin_dot[1:] = vel[:n - 1]
        body = slice(n - 1, None)  # the COMs and the end effector
        rates = _cross(axis_dot, arm[body]) + _cross(axis_w, vel[body, None] - origin_dot)
        acc = ((c.point_moves[body] * qd)[:, None, :] @ rates)[:, 0]
        inertial = k @ (k.transpose(0, 2, 1) @ spin[1:])  # I omega, I alpha
        wrench = np.zeros((n, 6, 2))
        wrench[:, :3, 0] = c.link_mass[:, None] * acc[:-1]
        wrench[:, 3:, 0] = inertial[:, :, 1] + _cross(spin[1:, :, 0], inertial[:, :, 0])
        wrench[:, :3, 1] = c.link_mass[:, None] * c.a_base[3:]
        forces = jac.transpose(1, 0, 2).reshape(n, 6 * n) @ wrench.reshape(6 * n, 2)
        # b(q, qd), the joint forces at qdd = 0, and g(q) = -sum_i m_i Jv_i' g,
        # the part of b that gravity alone causes; b(q, 0) is g(q) to the bit
        self.bias = forces[:, 1] + forces[:, 0]
        self.gravity = forces[:, 1]
        # J-dot qd = [a_ee; alpha_n], the end effector's acceleration at qdd = 0
        self.jdot_qd = np.concatenate([acc[-1], spin[-1, :, 1]])
        # J-dot's angular and linear rows: the rates of the world joint axes
        # and of the end effector's linear Jacobian columns (n x 3 each)
        self._axis_dot = axis_dot
        self._ee_rates = rates[-1]

    def jacobian(self) -> np.ndarray:
        """ChainState's J to the bit, from the pass's end-effector row."""
        return self._columns(self.axis_w, self._ee_cols)

    def jacobian_dot(self) -> np.ndarray:
        """J-dot along qd, 6 x n, from the pass's axis and column rates."""
        return self._columns(self._axis_dot, self._ee_rates)

    def _columns(self, axis: np.ndarray, lin: np.ndarray) -> np.ndarray:
        """6 x n [linear; angular] columns from (n, 3) linear and axis rows."""
        out = np.empty((6, self.chain.n))
        out[:3] = lin.T
        out[3:] = axis.T
        return out

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


# the (0, 3) block of a 6 x 6 operator: skew(v), for the Gram factor of a
# world spatial inertia
_COM_SLOTS = _cross_slots(((0, 3, 0, 1.0),))


def _id_derivatives(chain, axis_w: np.ndarray, origin_w: np.ndarray, rot_w: np.ndarray,
                    qd: np.ndarray, qdd: np.ndarray) -> np.ndarray:
    """Inverse dynamics and its derivatives at a stack of B states,
    [d tau/dq | d tau/dqd | tau], shape (B, n, 2n + 1).

    The world frames axis_w, origin_w (B, n, 3) and rot_w (B, n, 3, 3) are
    the states' own, qd and qdd are (B, n). With x the motion and x* the
    force cross product, per joint k: S_k = [z_k; o_k x z_k], V_k = sum_{l<=k}
    S_l qd_l, S'_k = V_k x S_k, A_k = a_base + sum_{l<=k} (S_l qdd_l + S'_l
    qd_l) and u_k = A_k x S_k + V_k x S'_k; per link, with I_i its world
    spatial inertia and h_i = I_i V_i: F_i = I_i A_i + V_i x* h_i and B_i =
    crf(V_i) I_i - I_i crm(V_i) + icrf(h_i); summed over the links i >= m,
    IC_m, BC_m and Fc_m. Then tau_j = S_j . Fc_j and, with m = max(j, k),
    d tau_j/dq_k = S_j . (IC_m u_k + BC_m S'_k), plus S_k x* Fc_k inside the
    bracket when j < k, and d tau_j/dqd_k = S_j . (2 IC_m S'_k + BC_m S_k).
    """
    b, n = qd.shape
    s = np.empty((b, n, 6))
    s[..., :3] = axis_w
    s[..., 3:] = _cross(origin_w, axis_w)
    vel = np.cumsum(s * qd[..., None], axis=1)
    crm_v = _crm(vel)
    s_dot = _mv(crm_v, s)
    acc = np.cumsum(s * qdd[..., None] + s_dot * qd[..., None], axis=1) + chain.a_base
    u = _mv(_crm(acc), s) + _mv(crm_v, s_dot)

    # [I | B | F] of every link; I = G G', G = [[R_i L_i, sqrt(m_i) [c_i]x],
    # [0, sqrt(m_i) 1]] with c_i the world COM and L_i L_i' the COM inertia
    com = origin_w + (rot_w @ chain.com[:, :, None])[..., 0]
    gram = _cross_operator(chain.root_mass[:, None] * com, _COM_SLOTS)
    gram[..., :3, :3] = rot_w @ chain.root_inertia
    gram[..., 3:, 3:] = chain.root_mass[:, None, None] * np.eye(3)
    link = np.empty((b, n, 6, 13))
    inertia = link[..., :6]
    np.matmul(gram, gram.swapaxes(-1, -2), out=inertia)
    # crf(V) = -crm(V)', and crf(V) I = -(I crm(V))' as I is symmetric
    iva = inertia @ np.stack([vel, acc], axis=-1)
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
    np.copyto(upper, lower, where=np.tile(chain.moves, 2) != 0)
    out[..., :-1] = upper
    return out


def inverse_dynamics(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Joint forces u = M(q) qdd + b(q, qd), a batch of one through the
    world-frame pass. Raises ValueError for a q, qd or qdd that is not finite."""
    st = ChainState(model, _finite(model.check_q(q), "q"))
    qd = _finite(model.check_q(qd, "qd"), "qd")
    qdd = _finite(model.check_q(qdd, "qdd"), "qdd")
    return _id_derivatives(st.chain, st.axis_w[None], st.origin_w[None], st.rot_w[None],
                           qd[None], qdd[None])[0, :, -1]


def bias_forces(model: RobotModel, q, qd) -> np.ndarray:
    """Coriolis/centrifugal plus gravity forces b(q, qd) = ID(q, qd, 0)."""
    return RigidBodyState(model, q, qd).bias


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix from the COM Jacobians of every link."""
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
    all states come from one batched world-frame pass over their frames.
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
    frames = (np.array([getattr(st, name) for st in states])
              for name in ("axis_w", "origin_w", "rot_w", "qd"))
    dtau = _id_derivatives(states[0].chain, *frames, qdd.reshape(-1, n))[:, :, :-1]
    minv = np.array([st.minv for st in states])
    minv = 0.5 * (minv + minv.transpose(0, 2, 1))
    dqdd = -np.linalg.solve(np.array([st.mass for st in states]), dtau)
    der = DynamicsDerivatives(dtau_dq=dtau[:, :, :n], dtau_dqd=dtau[:, :, n:],
                              dqdd_dq=dqdd[:, :, :n], dqdd_dqd=dqdd[:, :, n:], dqdd_du=minv)
    return der[0] if single else der
