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
come from one recursive Newton-Euler pass in spatial vector algebra, batched
over a stack of states: it carries each link force beside its derivatives by
q and qd (Carpentier & Mansard, Analytical derivatives of rigid body dynamics
algorithms, 2018), so one pass linearizes a whole horizon and a single state,
or a single inverse-dynamics call, is a batch of one. Its finite-difference
oracle lives in checks.py. Spatial vectors are ordered [angular; linear] and
expressed in body frames.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import ChainState, _crm, _cross_operator, _cross, _cross_slots, _skew
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


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products of (B, r, c) and (B, c) stacks."""
    return (mats @ vecs[..., None])[..., 0]


def _motion_transforms(local: np.ndarray) -> np.ndarray:
    """Motion transforms X_k (parent link frame into link k) of a (B, n, 4, 4)
    stack of local homogeneous transforms, shape (B, n, 6, 6)."""
    rt = local[..., :3, :3].swapaxes(-1, -2)
    xs = np.zeros(local.shape[:-2] + (6, 6))
    xs[..., :3, :3] = rt
    xs[..., 3:, 3:] = rt
    xs[..., 3:, :3] = -rt @ _skew(local[..., :3, 3])
    return xs


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
        # a NaN or infinite entry makes the sum NaN or infinite, and then
        # total - total is NaN; refused before the velocity pass, as M's check
        # refuses such a q
        total = sum(qd.tolist())
        if total - total != 0.0:
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


def _rnea(chain, xs: np.ndarray, qd: np.ndarray, qdd: np.ndarray) -> np.ndarray:
    """Inverse dynamics and its derivatives at a stack of B states,
    [d tau/dq | d tau/dqd | tau], shape (B, n, 2n + 1).

    The Newton-Euler passes and their derivatives for all states at once
    (Carpentier & Mansard, 2018): xs is the (B, n, 6, 6) stack of motion
    transforms, qd and qdd are (B, n). Columns 0..n-1 of every (B, 6, 2n)
    intermediate are derivatives by q, columns n..2n-1 by qd; the only
    Python loops run over the joints.
    """
    b, n = qd.shape
    v_prev = np.zeros((b, 6))
    a_prev = np.broadcast_to(chain.a_base, (b, 6))
    dv_prev = np.zeros((b, 6, 2 * n))
    da_prev = np.zeros((b, 6, 2 * n))
    # per link: [df | f], the force derivatives with the force as last column
    forces = []
    for k in range(n):
        x = xs[:, k]
        s = chain.subspace[k]
        crm_s = chain.crm_s[k]
        inertia = chain.inertia[k]
        qd_k = qd[:, k, None]
        vj = qd_k * s
        xv = _mv(x, v_prev)
        xa = _mv(x, a_prev)
        v = xv + vj
        crm_v = _crm(v)
        crf_v = -crm_v.transpose(0, 2, 1)
        a = xa + qdd[:, k, None] * s + _mv(crm_v, vj)

        dv = x @ dv_prev
        dv[:, :, k] -= xv @ crm_s.T
        dv[:, :, n + k] += s
        da = x @ da_prev - qd_k[..., None] * (crm_s @ dv)
        da[:, :, k] -= xa @ crm_s.T
        da[:, :, n + k] += crm_v @ s

        iv = v @ inertia.T
        blk = np.empty((b, 6, 2 * n + 1))
        blk[:, :, -1] = a @ inertia.T + _mv(crf_v, iv)
        blk[:, :, :-1] = inertia @ da + (_icrf(iv) + crf_v @ inertia) @ dv
        forces.append(blk)
        v_prev, a_prev, dv_prev, da_prev = v, a, dv, da

    tau = np.empty((b, n, 2 * n + 1))
    for k in range(n - 1, -1, -1):
        blk = forces[k]
        tau[:, k] = chain.subspace[k] @ blk
        if k > 0:
            # the joint-k rotation also turns the force passed to the parent
            blk[:, :, k] -= blk[:, :, -1] @ chain.crm_s[k]
            forces[k - 1] += xs[:, k].transpose(0, 2, 1) @ blk
    return tau


def inverse_dynamics(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Joint forces u = M(q) qdd + b(q, qd) via recursive Newton-Euler."""
    st = ChainState(model, q)
    qd = model.check_q(qd, "qd")
    qdd = model.check_q(qdd, "qdd")
    return _rnea(st.chain, _motion_transforms(st.local[None]), qd[None], qdd[None])[0, :, -1]


def bias_forces(model: RobotModel, q, qd) -> np.ndarray:
    """Coriolis/centrifugal plus gravity forces b(q, qd) = ID(q, qd, 0)."""
    return RigidBodyState(model, q, qd).bias


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix from the COM Jacobians of every link."""
    return RigidBodyState(model, q).mass


def forward_dynamics(model: RobotModel, q, qd, u) -> np.ndarray:
    """Joint accelerations solving M(q) qdd + b(q, qd) = u."""
    u = model.check_q(u, "u")
    return RigidBodyState(model, q, qd).forward_dynamics(u)


def dynamics_derivatives(states, qdd) -> DynamicsDerivatives:
    """Dynamics derivative blocks at one chain state, or with a leading batch
    axis at a sequence of B states of one model.

    qdd is (n,) or (B, n), each row consistent with its state's nominal
    torque (the caller's contract). The motion transforms of all states come
    from one call, and the analytic inverse-dynamics blocks from one batched
    pass. Raises ValueError for an empty batch, states of two models or a qdd
    of another shape.
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
    xs = _motion_transforms(np.stack([st.local for st in states]))
    dtau = _rnea(states[0].chain, xs, np.array([st.qd for st in states]),
                 qdd.reshape(-1, n))[:, :, :-1]
    minv = np.array([st.minv for st in states])
    minv = 0.5 * (minv + minv.transpose(0, 2, 1))
    dqdd = -np.linalg.solve(np.array([st.mass for st in states]), dtau)
    der = DynamicsDerivatives(dtau_dq=dtau[:, :, :n], dtau_dqd=dtau[:, :, n:],
                              dqdd_dq=dqdd[:, :, :n], dqdd_dqd=dqdd[:, :, n:], dqdd_du=minv)
    return der[0] if single else der
