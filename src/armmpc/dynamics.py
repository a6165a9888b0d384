"""Rigid-body dynamics of serial chains via spatial vector algebra.

Inverse dynamics is recursive Newton-Euler, the mass matrix comes from the
composite-rigid-body algorithm, and forward dynamics solves M qdd = u - b
through a Cholesky factorization (never an explicit inverse). The partial
derivatives needed by trajectory linearization are produced analytically by
differentiating the Newton-Euler recursions; a finite-difference fallback is
kept behind a switch as an independent cross-check.

Spatial vectors are ordered [angular; linear] and expressed in body frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .kinematics import ChainState, _crm, _skew
from .robot_model import RobotModel


class FactorizationError(RuntimeError):
    """The mass matrix failed its SPD factorization (invalid inertias)."""


def _icrf(f: np.ndarray) -> np.ndarray:
    """Matrix form of the force cross product in its first argument.

    Satisfies _icrf(f) @ m = _crf(m) @ f for all motion vectors m.
    """
    out = np.zeros((6, 6))
    nx = _skew(f[:3])
    fx = _skew(f[3:])
    out[:3, :3] = -nx
    out[:3, 3:] = -fx
    out[3:, :3] = -fx
    return out


def _motion_transform(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Transform motion vectors from parent coords to child coords.

    (rot, trans) is the child frame's pose expressed in the parent frame.
    """
    rt = rot.T
    out = np.zeros((6, 6))
    out[:3, :3] = rt
    out[3:, 3:] = rt
    out[3:, :3] = -rt @ _skew(trans)
    return out


@dataclass(frozen=True, eq=False)
class DynamicsDerivatives:
    """Partial derivatives of inverse and forward dynamics at one state.

    Forward-dynamics blocks are obtained from the inverse-dynamics blocks
    through dqdd_dx = -Minv @ dtau_dx, and dqdd_du = Minv.
    """

    dtau_dq: np.ndarray
    dtau_dqd: np.ndarray
    minv: np.ndarray
    dqdd_dq: np.ndarray
    dqdd_dqd: np.ndarray
    dqdd_du: np.ndarray


class RigidBodyState(ChainState):
    """A chain state with the dynamics at it, each quantity computed once.

    The motion transforms X_k (parent link frame into link k) come from the
    same joint pass as the kinematic frames; the mass matrix, its Cholesky
    factor and the bias forces are evaluated on first use.
    """

    @cached_property
    def xs(self) -> list[np.ndarray]:
        c = self.chain
        xs = []
        for k in range(c.n):
            if c.revolute[k]:
                rot = c.rot_pt[k] @ self.own[k]
                trans = c.trans_pt[k]
            else:
                rot = c.rot_pt[k]
                trans = c.trans_pt[k] + c.rot_pt[k] @ (c.axes[k] * self.q[k])
            xs.append(_motion_transform(rot, trans))
        return xs

    @cached_property
    def mass(self) -> np.ndarray:
        """Joint-space inertia matrix via the composite-rigid-body algorithm."""
        c = self.chain
        xs = self.xs
        n = c.n
        composite = [inertia.copy() for inertia in c.inertia]
        mass = np.zeros((n, n))
        for k in range(n - 1, -1, -1):
            s = c.subspace[k]
            if k > 0:
                composite[k - 1] += xs[k].T @ composite[k] @ xs[k]
            fh = composite[k] @ s
            mass[k, k] = s @ fh
            j = k
            while j > 0:
                fh = xs[j].T @ fh
                j -= 1
                mass[k, j] = mass[j, k] = c.subspace[j] @ fh
        return mass

    @cached_property
    def factor(self):
        """Lower Cholesky factor of the mass matrix, in cho_factor form."""
        try:
            return cho_factor(self.mass, lower=True)
        except (LinAlgError, np.linalg.LinAlgError) as exc:
            raise FactorizationError(f"mass matrix is not SPD at q={self.q!r}: {exc}") from exc

    @cached_property
    def minv(self) -> np.ndarray:
        """Inverse mass matrix, solved from the Cholesky factor."""
        return cho_solve(self.factor, np.eye(self.chain.n))

    @cached_property
    def bias(self) -> np.ndarray:
        """Coriolis/centrifugal plus gravity forces b(q, qd)."""
        return self.inverse_dynamics(np.zeros(self.chain.n))

    @cached_property
    def gravity(self) -> np.ndarray:
        """Gravity forces g(q) = b(q, 0): the Newton-Euler passes at rest."""
        zeros = np.zeros(self.chain.n)
        return self._rnea(zeros, zeros)

    def forward_dynamics(self, u: np.ndarray) -> np.ndarray:
        """Joint accelerations solving M qdd + b = u."""
        return cho_solve(self.factor, u - self.bias)

    def semi_implicit_step(self, u: np.ndarray, dt: float):
        """One semi-implicit Euler step from this state: velocity first, then position."""
        qd = self.qd + dt * self.forward_dynamics(u)
        return self.q + dt * qd, qd

    def inverse_dynamics(self, qdd: np.ndarray) -> np.ndarray:
        """Recursive Newton-Euler: u = M(q) qdd + b(q, qd)."""
        return self._rnea(self.qd, qdd)

    def _rnea(self, qd: np.ndarray, qdd: np.ndarray) -> np.ndarray:
        """Newton-Euler passes at this state's q and the given qd and qdd."""
        c = self.chain
        xs = self.xs
        n = c.n
        v = np.zeros((n, 6))
        a = np.zeros((n, 6))
        f = np.zeros((n, 6))
        v_prev = np.zeros(6)
        a_prev = c.a_base
        for k in range(n):
            s = c.subspace[k]
            vj = s * qd[k]
            v[k] = xs[k] @ v_prev + vj
            crm_v = _crm(v[k])
            crf_v = -crm_v.T
            a[k] = xs[k] @ a_prev + s * qdd[k] + crm_v @ vj
            iv = c.inertia[k] @ v[k]
            f[k] = c.inertia[k] @ a[k] + crf_v @ iv
            v_prev = v[k]
            a_prev = a[k]

        u = np.empty(n)
        for k in range(n - 1, -1, -1):
            u[k] = c.subspace[k] @ f[k]
            if k > 0:
                f[k - 1] += xs[k].T @ f[k]
        return u

    def _id_derivatives(self, qdd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d(inverse dynamics)/dq and /dqd by differentiating the RNEA passes."""
        chain = self.chain
        xs = self.xs
        qd = self.qd
        n = chain.n

        v = np.zeros((n, 6))
        a = np.zeros((n, 6))
        f = np.zeros((n, 6))
        dv_q = np.zeros((n, 6, n))
        da_q = np.zeros((n, 6, n))
        df_q = np.zeros((n, 6, n))
        dv_qd = np.zeros((n, 6, n))
        da_qd = np.zeros((n, 6, n))
        df_qd = np.zeros((n, 6, n))

        v_prev = np.zeros(6)
        a_prev = chain.a_base
        dv_prev_q = np.zeros((6, n))
        da_prev_q = np.zeros((6, n))
        dv_prev_qd = np.zeros((6, n))
        da_prev_qd = np.zeros((6, n))

        for k in range(n):
            x = xs[k]
            s = chain.subspace[k]
            vj = s * qd[k]
            xv = x @ v_prev
            xa = x @ a_prev
            v[k] = xv + vj
            crm_vk = _crm(v[k])
            crf_vk = -crm_vk.T
            a[k] = xa + s * qdd[k] + crm_vk @ vj

            crm_s = chain.crm_s[k]
            crm_vj = qd[k] * crm_s

            dv_q[k] = x @ dv_prev_q
            dv_q[k][:, k] += -crm_s @ xv
            da_q[k] = x @ da_prev_q - crm_vj @ dv_q[k]
            da_q[k][:, k] += -crm_s @ xa

            dv_qd[k] = x @ dv_prev_qd
            dv_qd[k][:, k] += s
            da_qd[k] = x @ da_prev_qd - crm_vj @ dv_qd[k]
            da_qd[k][:, k] += crm_vk @ s

            inertia = chain.inertia[k]
            iv = inertia @ v[k]
            f[k] = inertia @ a[k] + crf_vk @ iv
            mix = _icrf(iv) + crf_vk @ inertia
            df_q[k] = inertia @ da_q[k] + mix @ dv_q[k]
            df_qd[k] = inertia @ da_qd[k] + mix @ dv_qd[k]

            v_prev, a_prev = v[k], a[k]
            dv_prev_q, da_prev_q = dv_q[k], da_q[k]
            dv_prev_qd, da_prev_qd = dv_qd[k], da_qd[k]

        dtau_dq = np.zeros((n, n))
        dtau_dqd = np.zeros((n, n))
        for k in range(n - 1, -1, -1):
            s = chain.subspace[k]
            dtau_dq[k] = s @ df_q[k]
            dtau_dqd[k] = s @ df_qd[k]
            if k > 0:
                xt = xs[k].T
                df_q[k - 1] += xt @ df_q[k]
                df_q[k - 1][:, k] += xt @ (-chain.crm_s[k].T @ f[k])
                df_qd[k - 1] += xt @ df_qd[k]
                f[k - 1] += xt @ f[k]
        return dtau_dq, dtau_dqd

    def derivatives(self, qdd: np.ndarray, method: str = "analytic") -> DynamicsDerivatives:
        """All dynamics derivative blocks at (q, qd, qdd); see dynamics_derivatives."""
        if method == "analytic":
            dtau_dq, dtau_dqd = self._id_derivatives(qdd)
        elif method == "fd":
            dtau_dq, dtau_dqd = _id_derivatives_fd(self.model, self.q, self.qd, qdd)
        else:
            raise ValueError(f"unknown derivative method {method!r}")
        factor = self.factor
        minv = 0.5 * (self.minv + self.minv.T)
        return DynamicsDerivatives(
            dtau_dq=dtau_dq,
            dtau_dqd=dtau_dqd,
            minv=minv,
            dqdd_dq=-cho_solve(factor, dtau_dq),
            dqdd_dqd=-cho_solve(factor, dtau_dqd),
            dqdd_du=minv,
        )

def inverse_dynamics(model: RobotModel, q, qd, qdd) -> np.ndarray:
    """Joint forces u = M(q) qdd + b(q, qd) via recursive Newton-Euler."""
    q = model.check_q(q)
    qd = model.check_q(qd, "qd")
    qdd = model.check_q(qdd, "qdd")
    return RigidBodyState(model, q, qd).inverse_dynamics(qdd)


def bias_forces(model: RobotModel, q, qd) -> np.ndarray:
    """Coriolis/centrifugal plus gravity forces b(q, qd) = ID(q, qd, 0)."""
    return inverse_dynamics(model, q, qd, np.zeros(model.n))


def mass_matrix(model: RobotModel, q) -> np.ndarray:
    """Joint-space inertia matrix via the composite-rigid-body algorithm."""
    return RigidBodyState(model, model.check_q(q)).mass


def forward_dynamics(model: RobotModel, q, qd, u) -> np.ndarray:
    """Joint accelerations solving M(q) qdd + b(q, qd) = u."""
    u = model.check_q(u, "u")
    q = model.check_q(q)
    return RigidBodyState(model, q, model.check_q(qd, "qd")).forward_dynamics(u)


def integrate_semi_implicit(model: RobotModel, q, qd, u, dt: float):
    """One semi-implicit Euler step: velocity update first, then position."""
    u = model.check_q(u, "u")
    q = model.check_q(q)
    return RigidBodyState(model, q, model.check_q(qd, "qd")).semi_implicit_step(u, dt)


def _id_derivatives_fd(model: RobotModel, q, qd, qdd, h: float = 1e-6):
    """Central finite differences of inverse dynamics (cross-check path)."""
    n = model.n
    dtau_dq = np.empty((n, n))
    dtau_dqd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        dtau_dq[:, j] = (inverse_dynamics(model, q + e, qd, qdd) - inverse_dynamics(model, q - e, qd, qdd)) / (2 * h)
        dtau_dqd[:, j] = (inverse_dynamics(model, q, qd + e, qdd) - inverse_dynamics(model, q, qd - e, qdd)) / (2 * h)
    return dtau_dq, dtau_dqd


def dynamics_derivatives(model: RobotModel, q, qd, qdd, method: str = "analytic") -> DynamicsDerivatives:
    """All dynamics derivative blocks at (q, qd, qdd).

    qdd must be consistent with the nominal torque (the caller's contract).
    method="fd" switches the inverse-dynamics blocks to the finite-difference
    fallback; the forward-dynamics blocks always follow from them.
    """
    q = model.check_q(q)
    qd = model.check_q(qd, "qd")
    qdd = model.check_q(qdd, "qdd")
    return RigidBodyState(model, q, qd).derivatives(qdd, method)
