"""Forward kinematics, geometric Jacobians, and task-space error.

This module also holds the one rigid-body chain representation: a cached
per-model record of the chain constants and a per-state object whose joint
pass the kinematics here and the dynamics in dynamics.py share.

Conventions: world-frame quantities throughout; Jacobians are 6 x n with
linear rows first (0:3) and angular rows last (3:6); orientation errors are
rotation vectors log(R_target R_current^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .robot_model import REVOLUTE, RobotModel, _frozen


# ---------------------------------------------------------------------------
# quaternion / rotation-vector utilities (w, x, y, z ordering, w >= 0)


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Fix the double-cover sign: w > 0, ties broken by the first nonzero entry."""
    if q[0] < 0:
        return -q
    if q[0] == 0:
        for c in q[1:]:
            if c != 0:
                return q if c > 0 else -q
    return q


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(rot: np.ndarray) -> np.ndarray:
    """Shepperd's method; returns the canonical-sign unit quaternion."""
    rot = np.asarray(rot, dtype=float)
    tr = rot[0, 0] + rot[1, 1] + rot[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (rot[2, 1] - rot[1, 2]) / s, (rot[0, 2] - rot[2, 0]) / s, (rot[1, 0] - rot[0, 1]) / s]
        )
    else:
        i = int(np.argmax([rot[0, 0], rot[1, 1], rot[2, 2]]))
        if i == 0:
            s = math.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2
            q = np.array(
                [(rot[2, 1] - rot[1, 2]) / s, 0.25 * s, (rot[0, 1] + rot[1, 0]) / s, (rot[0, 2] + rot[2, 0]) / s]
            )
        elif i == 1:
            s = math.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2
            q = np.array(
                [(rot[0, 2] - rot[2, 0]) / s, (rot[0, 1] + rot[1, 0]) / s, 0.25 * s, (rot[1, 2] + rot[2, 1]) / s]
            )
        else:
            s = math.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2
            q = np.array(
                [(rot[1, 0] - rot[0, 1]) / s, (rot[0, 2] + rot[2, 0]) / s, (rot[1, 2] + rot[2, 1]) / s, 0.25 * s]
            )
    return canonical_quat(q / np.linalg.norm(q))


def rotvec_to_matrix(v) -> np.ndarray:
    """Exponential map: rotation matrix for the rotation vector v."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        k = _skew(v)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = v / angle
    k = _skew(axis)
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotvec_from_matrix(rot: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation vector of a rotation matrix, norm <= pi.

    At angle exactly pi the axis sign is chosen deterministically from the
    largest-magnitude diagonal entry.
    """
    rot = np.asarray(rot, dtype=float)
    cos_angle = max(-1.0, min(1.0, (np.trace(rot) - 1.0) * 0.5))
    angle = math.acos(cos_angle)
    skew_part = 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    if angle < 1e-7:
        return skew_part  # sin(a)/a ~ 1 to second order
    if angle > math.pi - 1e-6:
        # near pi: extract the axis from R + I, sign fixed by the dominant diagonal
        bb = 0.5 * (rot + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(bb), 0.0, None))
        lead = int(np.argmax(np.abs(np.diag(bb))))
        col = bb[:, lead]
        signs = np.sign(col)
        signs[signs == 0] = 1.0
        axis = axis * signs * (1.0 if axis[lead] >= 0 else -1.0)
        norm = np.linalg.norm(axis)
        if norm > 0:
            axis = axis / norm
        # keep the exact-pi representative deterministic
        if angle >= math.pi:
            flip = axis[lead] < 0
            axis = -axis if flip else axis
        return axis * angle
    return skew_part * (angle / math.sin(angle))


def _skew(v) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (np.cross without overhead)."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (k, 3) arrays (np.cross without overhead)."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _cross_slots(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat 6x6 slots, source entries and signs of a spatial cross operator.

    Each block (row, col, src, sign) places sign * _skew(v[src:src + 3]) at
    rows row:row+3 and columns col:col+3.
    """
    skew_entries = ((0, 1, 2, -1.0), (0, 2, 1, 1.0), (1, 0, 2, 1.0),
                    (1, 2, 0, -1.0), (2, 0, 1, -1.0), (2, 1, 0, 1.0))
    slots, src, sign = [], [], []
    for row, col, first, block_sign in blocks:
        for i, j, e, s in skew_entries:
            slots.append((row + i) * 6 + col + j)
            src.append(first + e)
            sign.append(block_sign * s)
    return np.array(slots), np.array(src), np.array(sign)


def _cross_operator(v: np.ndarray, slots) -> np.ndarray:
    """The 6x6 operator with the given _cross_slots, for v of shape (..., 6)."""
    idx, src, sign = slots
    out = np.zeros(v.shape[:-1] + (36,))
    out[..., idx] = v[..., src] * sign
    return out.reshape(v.shape[:-1] + (6, 6))


_CRM_SLOTS = _cross_slots(((0, 0, 0, 1.0), (3, 3, 0, 1.0), (3, 0, 3, 1.0)))


def _crm(v: np.ndarray) -> np.ndarray:
    """Motion cross-product operator: _crm(v) @ m = v x m.

    v is one 6-vector or a (..., 6) stack, giving (..., 6, 6).
    """
    return _cross_operator(np.asarray(v), _CRM_SLOTS)


def _crf(v: np.ndarray) -> np.ndarray:
    """Force cross-product operator: _crf(v) = -_crm(v).T, batched like _crm."""
    return -np.swapaxes(_crm(v), -1, -2)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pose:
    """End-effector pose: unit quaternion (w, x, y, z) + translation (m)."""

    quaternion: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quaternion, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        if abs(np.linalg.norm(q) - 1.0) > 1e-9:
            raise ValueError("quaternion is not unit norm")
        object.__setattr__(self, "quaternion", _frozen(canonical_quat(q)))
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {t.shape}")
        object.__setattr__(self, "translation", _frozen(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_matrix(rot: np.ndarray, translation: np.ndarray) -> "Pose":
        return Pose(quat_from_matrix(rot), translation)

    @cached_property
    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.quaternion)


@dataclass(frozen=True, eq=False)
class TaskError:
    """6-vector [position error (m); orientation error (rotation vector, rad)]."""

    value: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        if v.shape != (6,):
            raise ValueError(f"task error must have shape (6,), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("task error has non-finite entries")
        object.__setattr__(self, "value", _frozen(v))

    @property
    def position(self) -> np.ndarray:
        return self.value[:3]

    @property
    def orientation(self) -> np.ndarray:
        return self.value[3:]


def _spatial_inertia(mass: float, com: np.ndarray, inertia_com: np.ndarray) -> np.ndarray:
    """6x6 spatial inertia about the link frame origin, [angular; linear] order."""
    cx = _skew(com)
    out = np.empty((6, 6))
    out[:3, :3] = inertia_com + mass * (cx @ cx.T)
    out[:3, 3:] = mass * cx
    out[3:, :3] = mass * cx.T
    out[3:, 3:] = mass * np.eye(3)
    return out


class _Chain:
    """Per-model constants of the rigid-body chain, for kinematics and dynamics."""

    __slots__ = ("n", "revolute", "axes", "skew", "skew2", "rot_pt", "trans_pt",
                 "ee_rot", "ee_trans", "subspace", "crm_s", "inertia", "a_base")

    def __init__(self, model: RobotModel):
        n = model.n
        self.n = n
        self.revolute = [j.kind == REVOLUTE for j in model.joints]
        self.axes = [j.axis for j in model.joints]
        self.skew = [_skew(a) for a in self.axes]
        self.skew2 = [k @ k for k in self.skew]
        self.rot_pt = [j.parent_transform.rotation for j in model.joints]
        self.trans_pt = [j.parent_transform.translation for j in model.joints]
        self.ee_rot = model.ee_transform.rotation
        self.ee_trans = model.ee_transform.translation
        # motion subspace of each joint, [angular; linear]
        self.subspace = np.zeros((n, 6))
        for k in range(n):
            if self.revolute[k]:
                self.subspace[k, :3] = self.axes[k]
            else:
                self.subspace[k, 3:] = self.axes[k]
        # cross operators of each motion subspace: _crm(s * qd) = qd * crm_s,
        # _crf(s) = -crm_s.T
        self.crm_s = [_crm(s) for s in self.subspace]
        self.inertia = [
            _spatial_inertia(link.mass, link.com, link.inertia_tensor) for link in model.links
        ]
        # gravity enters as a fictitious base acceleration -g
        self.a_base = np.zeros(6)
        self.a_base[3:] = -model.gravity


_chain_cache: "WeakKeyDictionary[RobotModel, _Chain]" = WeakKeyDictionary()

_EYE3 = np.eye(3)


def _chain(model: RobotModel) -> _Chain:
    chain = _chain_cache.get(model)
    if chain is None:
        chain = _Chain(model)
        _chain_cache[model] = chain
    return chain


class ChainState:
    """The chain at one configuration q (and velocity qd, when given).

    Construction is the one joint pass: each revolute joint's own rotation
    is evaluated once. The world frames behind FK, J and J-dot derive from
    it on first use; dynamics.RigidBodyState adds the motion transforms
    behind the dynamics recursions.
    """

    def __init__(self, model: RobotModel, q: np.ndarray, qd: np.ndarray | None = None):
        chain = _chain(model)
        self.model = model
        self.chain = chain
        self.q = q
        self.qd = qd
        own = []
        for k in range(chain.n):
            if chain.revolute[k]:
                qk = q[k]
                own.append(_EYE3 + math.sin(qk) * chain.skew[k]
                           + (1.0 - math.cos(qk)) * chain.skew2[k])
            else:
                own.append(_EYE3)
        self.own = own

    @cached_property
    def frames(self) -> tuple[np.ndarray, ...]:
        """World joint axes, joint origins and link-frame origins (n x 3 each),
        then the end-effector rotation and position."""
        c = self.chain
        n = c.n
        axis_w = np.empty((n, 3))
        origin_w = np.empty((n, 3))
        pos_w = np.empty((n, 3))
        rot = _EYE3
        pos = np.zeros(3)
        for k in range(n):
            rot_j = rot @ c.rot_pt[k]
            origin = pos + rot @ c.trans_pt[k]
            axis = rot_j @ c.axes[k]
            if c.revolute[k]:
                rot = rot_j @ self.own[k]
                pos = origin
            else:
                rot = rot_j
                pos = origin + axis * self.q[k]
            axis_w[k] = axis
            origin_w[k] = origin
            pos_w[k] = pos
        return axis_w, origin_w, pos_w, rot @ c.ee_rot, pos + rot @ c.ee_trans

    def jacobian(self) -> np.ndarray:
        axis_w, origin_w, _, _, ee_pos = self.frames
        return self._columns(axis_w, _cross_rows(axis_w, ee_pos[None, :] - origin_w))

    def jacobian_dot(self) -> np.ndarray:
        axis_w, origin_w, pos_w, _, ee_pos = self.frames
        c = self.chain
        q, qd = self.q, self.qd
        omega = np.zeros(3)  # angular velocity of link k
        vel = np.zeros(3)  # linear velocity of link-frame origin pos_w[k]
        axis_dot = np.empty((c.n, 3))
        origin_dot = np.empty((c.n, 3))
        prev_pos = np.zeros(3)
        for k in range(c.n):
            z = axis_w[k]
            o_dot = vel + _cross(omega, origin_w[k] - prev_pos)
            axis_dot[k] = _cross(omega, z)
            origin_dot[k] = o_dot
            if c.revolute[k]:
                omega = omega + z * qd[k]
                vel = o_dot
            else:
                vel = o_dot + _cross(omega, z * q[k]) + z * qd[k]
            prev_pos = pos_w[k]

        ee_vel = vel + _cross(omega, ee_pos - prev_pos)
        arm = ee_pos[None, :] - origin_w
        lin = _cross_rows(axis_dot, arm) + _cross_rows(axis_w, ee_vel[None, :] - origin_dot)
        return self._columns(axis_dot, lin)

    def _columns(self, axis: np.ndarray, lin: np.ndarray) -> np.ndarray:
        """6 x n [linear; angular] columns: (lin, axis) for revolute joints,
        (axis, 0) for prismatic ones."""
        out = np.zeros((6, self.chain.n))
        for k in range(self.chain.n):
            if self.chain.revolute[k]:
                out[:3, k] = lin[k]
                out[3:, k] = axis[k]
            else:
                out[:3, k] = axis[k]
        return out


def forward_kinematics(model: RobotModel, q) -> Pose:
    """End-effector pose at configuration q."""
    *_, rot, pos = ChainState(model, model.check_q(q)).frames
    return Pose.from_matrix(rot, pos)


def fk_jacobian_raw(model: RobotModel, q):
    """One chain pass: (ee rotation matrix, ee position, geometric Jacobian)."""
    st = ChainState(model, model.check_q(q))
    *_, rot, pos = st.frames
    return rot, pos, st.jacobian()


def geometric_jacobian(model: RobotModel, q) -> np.ndarray:
    """World-frame geometric Jacobian at the end-effector, shape (6, n)."""
    return ChainState(model, model.check_q(q)).jacobian()


def jacobian_dot(model: RobotModel, q, qd) -> np.ndarray:
    """Time derivative of the geometric Jacobian along (q, qd), shape (6, n)."""
    q = model.check_q(q)
    return ChainState(model, q, model.check_q(qd, "qd")).jacobian_dot()


def pose_error_raw(rot_t: np.ndarray, pos_t: np.ndarray,
                   rot_c: np.ndarray, pos_c: np.ndarray) -> np.ndarray:
    """[dp; log(R_t R_c^T)] from raw rotation matrices and positions."""
    out = np.empty(6)
    out[:3] = pos_t - pos_c
    out[3:] = rotvec_from_matrix(rot_t @ rot_c.T)
    return out


def task_error(target: Pose, current: Pose) -> TaskError:
    """Pose difference target minus current as [dp; log(R_t R_c^T)]."""
    return TaskError(pose_error_raw(target.rotation_matrix, target.translation,
                                    current.rotation_matrix, current.translation))
