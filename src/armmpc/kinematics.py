"""Forward kinematics, geometric Jacobians, and task-space error.

This module also holds the one rigid-body chain representation, a chain of
revolute joints: the chain constants the model keeps (RobotModel.chain), as
(n, ...) arrays over the joints, and a per-configuration object whose
constructor computes every joint's local transform from its parent link,
X_J(q) X_T (Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 4), in
one batched pass into an (n, 4, 4) stack of homogeneous transforms, and then
the world frames, the prefix products of that stack, by a parallel prefix
scan in ceil(log2 n) batched products. The link-frame Newton-Euler oracle in
checks.py builds its motion transforms from the same local transforms.
Everything that depends on the joint velocities, J-dot among it, comes from
the spatial pass of dynamics.RigidBodyState.

Conventions: world-frame quantities throughout; Jacobians are 6 x n with
linear rows first (0:3) and angular rows last (3:6); orientation errors are
rotation vectors log(R_target R_current^T); quaternions are (w, x, y, z),
w >= 0. A Pose is one pose or a stack of m (a trajectory's samples); the
kernels canonical_quat, quat_to_matrix and the log map are hand-written
(under 4 us for one, scipy 13-47 us), other conversions are scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

from .robot_model import RobotModel, _frozen


# ---------------------------------------------------------------------------
# the per-tick quaternion / rotation-vector kernels


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Fix the double-cover sign of one quaternion (4,) or of each row of an
    (m, 4) stack: w > 0, ties broken by the first nonzero entry."""
    q = np.asarray(q)
    lead = np.take_along_axis(q, (q != 0).argmax(axis=-1)[..., None], -1)
    return np.where(lead < 0, -q, q)


def quat_to_matrix(q) -> np.ndarray:
    """The rotation matrix of one unit quaternion (4,), (3, 3), or of each
    row of an (m, 4) stack, (m, 3, 3), by the same arithmetic per entry."""
    w, x, y, z = np.asarray(q, dtype=float).T
    entries = [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
               2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
               2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]
    return np.stack(entries, axis=-1).reshape(np.shape(w) + (3, 3))


def _rotvec(rot: np.ndarray) -> tuple[float, float, float]:
    """Logarithm map: the rotation vector, norm <= pi, of a float rotation
    matrix, as three Python floats.

    At angle exactly pi the axis sign is chosen deterministically from the
    largest-magnitude diagonal entry.
    """
    # read once into Python floats: the generic branch makes no small numpy
    # temporaries
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    # clipped to [-1, 1] as max(-1.0, min(1.0, c)) would, a NaN to 1.0, with
    # no builtin called
    cos_angle = (r00 + r11 + r22 - 1.0) * 0.5
    cos_angle = cos_angle if cos_angle < 1.0 else 1.0
    cos_angle = cos_angle if cos_angle > -1.0 else -1.0
    angle = math.acos(cos_angle)
    if angle < 1e-7:
        # sin(a)/a ~ 1 to second order
        return 0.5 * (r21 - r12), 0.5 * (r02 - r20), 0.5 * (r10 - r01)
    if angle > math.pi - 1e-6:
        # near pi: extract the axis from R + I, sign fixed by the dominant diagonal
        bb = 0.5 * (rot + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(bb), 0.0, None))
        lead = int(np.argmax(np.abs(np.diag(bb))))
        col = bb[:, lead]
        signs = np.sign(col)
        signs[signs == 0] = 1.0
        axis = axis * signs
        norm = np.linalg.norm(axis)
        if norm > 0:
            axis = axis / norm
        return tuple((axis * angle).tolist())
    scale = angle / math.sin(angle)
    return 0.5 * (r21 - r12) * scale, 0.5 * (r02 - r20) * scale, 0.5 * (r10 - r01) * scale


_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product along the last axis of broadcastable (..., 3) arrays
    (np.cross without overhead)."""
    return a.take(_YZX, -1) * b.take(_ZXY, -1) - a.take(_ZXY, -1) * b.take(_YZX, -1)


def _cross_table(blocks, width: int = 6) -> tuple[np.ndarray, int]:
    """The table T of a width x width cross operator, and width: v @ T is the
    operator of v, flattened. Each block (row, col, src, sign) places sign *
    _skew(v[src:src + 3]) at rows row:row+3 and columns col:col+3. A column
    of T holds at most one nonzero, +-1, so v @ T is exact (an infinite v
    makes the zeros NaN)."""
    skew_entries = ((0, 1, 2, -1.0), (0, 2, 1, 1.0), (1, 0, 2, 1.0),
                    (1, 2, 0, -1.0), (2, 0, 1, -1.0), (2, 1, 0, 1.0))
    table = np.zeros((max(block[2] for block in blocks) + 3, width * width))
    for row, col, first, block_sign in blocks:
        for i, j, e, s in skew_entries:
            table[first + e, (row + i) * width + col + j] = block_sign * s
    return table, width


def _cross_operator(v: np.ndarray, table) -> np.ndarray:
    """The operator with the given _cross_table, for v of shape (..., 3 or 6)."""
    table, width = table
    return (v @ table).reshape(v.shape[:-1] + (width, width))


_SKEW_TABLE = _cross_table(((0, 0, 0, 1.0),), width=3)


def _skew(v) -> np.ndarray:
    """Cross-product matrix: _skew(v) @ w = v x w, for v of shape (..., 3)."""
    return _cross_operator(np.asarray(v, dtype=float), _SKEW_TABLE)


_CRM_TABLE = _cross_table(((0, 0, 0, 1.0), (3, 3, 0, 1.0), (3, 0, 3, 1.0)))


def _crm(v: np.ndarray) -> np.ndarray:
    """Motion cross-product operator: _crm(v) @ m = v x m.

    v is one 6-vector or a (..., 6) stack, giving (..., 6, 6).
    """
    return _cross_operator(np.asarray(v), _CRM_TABLE)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pose:
    """End-effector pose: unit quaternion (w, x, y, z) + translation (m), (4,)
    and (3,), or a stack of m poses, (m, 4) and (m, 3), each row a single
    pose's bits; its arrays and rotation_matrix, (3, 3) or (m, 3, 3), are read-only."""

    quaternion: np.ndarray
    translation: np.ndarray
    rotation_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = np.asarray(self.quaternion, dtype=float)
        if q.ndim not in (1, 2) or q.shape[-1] != 4:
            raise ValueError(f"quaternion must have shape (4,) or (m, 4), got {q.shape}")
        t = np.array(self.translation, dtype=float)  # a copy: the caller's stays writable
        if t.shape != q.shape[:-1] + (3,):
            raise ValueError(f"translation must have shape {q.shape[:-1] + (3,)}, got {t.shape}")
        if not np.all(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= 1e-9):
            raise ValueError("quaternion is not finite with unit norm")
        if not np.isfinite(t).all():
            raise ValueError("translation has non-finite entries")
        object.__setattr__(self, "quaternion", _frozen(canonical_quat(q)))
        object.__setattr__(self, "translation", _frozen(t))
        object.__setattr__(self, "rotation_matrix", _frozen(quat_to_matrix(self.quaternion)))


# scipy orders a quaternion (x, y, z, w): the setup-time conversions use these two


def rotation_from_quat(quats) -> Rotation:
    """The Rotation of one (w, x, y, z) quaternion or of an (m, 4) stack."""
    return Rotation.from_quat(np.asarray(quats, dtype=float)[..., [1, 2, 3, 0]])


def quat_from_rotation(rotation: Rotation) -> np.ndarray:
    """rotation's canonical-sign unit quaternion(s), (w, x, y, z): (4,) or (m, 4)."""
    return rotation.as_quat(canonical=True)[..., [3, 0, 1, 2]]


def quat_from_matrix(rot: np.ndarray) -> np.ndarray:
    """The canonical-sign unit quaternion of a rotation matrix."""
    return quat_from_rotation(Rotation.from_matrix(rot))


# J's angular rows (3..5) in y z x, z x y order, and the arm's in z x y, y z x
_AXIS_ROWS = np.array([4, 5, 3, 5, 3, 4])
_ARM_ROWS = np.array([2, 0, 1, 1, 2, 0])


class _Chain:
    """Per-model constants of the rigid-body chain, for kinematics and dynamics.

    Every joint is revolute. Every per-joint constant is an (n, ...) array
    over the joints, and every per-link one an (n, ...) array over the links:
    the parts of each joint's local transform for the chain pass, and for
    the spatial pass of the dynamics the base acceleration, the triangular
    sums over the links and the parts of each link inertia's Gram factor.
    """

    __slots__ = ("n", "axes", "local_rest", "local_sin", "local_vers",
                 "ee", "a_base", "moves", "root_mass", "root_mass_eye",
                 "com", "root_inertia")

    def __init__(self, model: RobotModel):
        n = model.n
        self.n = n
        self.axes = np.array([j.axis for j in model.joints])
        # each joint's homogeneous local transform, rot_pt exp(q [a]x) and the
        # constant translation from the parent link, is local_rest + sin q
        # local_sin + (1 - cos q) local_vers, the last two zero outside the
        # rotation block, where they hold rot_pt [a]x and rot_pt [a]x^2
        skew = _skew(self.axes)
        rot_pt = np.array([j.parent_transform.rotation for j in model.joints])
        self.local_rest, self.local_sin, self.local_vers = np.zeros((3, n, 4, 4))
        self.local_rest[:, :3, :3] = rot_pt
        self.local_rest[:, :3, 3] = [j.parent_transform.translation for j in model.joints]
        self.local_rest[:, 3, 3] = 1.0
        rot_skew = rot_pt @ skew
        self.local_sin[:, :3, :3] = rot_skew
        self.local_vers[:, :3, :3] = rot_skew @ skew
        # end-effector transform from the last link, homogeneous 4 x 4
        self.ee = np.eye(4)
        self.ee[:3, :3] = model.ee_transform.rotation
        self.ee[:3, 3] = model.ee_transform.translation
        # gravity enters as a fictitious base acceleration -g
        self.a_base = np.zeros(6)
        self.a_base[3:] = -model.gravity
        # [link i, joint j]: joint j moves and turns link i (j <= i)
        self.moves = np.tril(np.ones((n, n)))
        self.root_mass = np.sqrt([link.mass for link in model.links])
        # sqrt(m_i) 1, the constant block of each link inertia's Gram factor
        self.root_mass_eye = self.root_mass[:, None, None] * np.eye(3)
        self.com = np.array([link.com for link in model.links])
        inertia_com = np.array([link.inertia_tensor for link in model.links])
        # L L' = each link's inertia about its COM, in the link frame
        self.root_inertia = np.linalg.cholesky(inertia_com)


class ChainState:
    """The chain at one configuration q, filled by its constructor.

    The joint pass forms every joint's homogeneous local transform from its
    parent link, its rotation rot_pt exp(q [a]x) and its constant
    translation, for all joints at once as three constant (n, 4, 4) stacks
    weighted by 1, sin q and 1 - cos q: one stack `local`, which the
    link-frame Newton-Euler oracle of checks.py reads for its motion
    transforms. The world frames behind FK and J are the prefix products of
    that stack: link k's world transform is the product of the local
    transforms of joints 0..k, all n of them formed by a Hillis-Steele prefix
    scan (Hillis & Steele, 1986), ceil(log2 n) batched products of the stack
    with itself shifted by 1, 2, 4, ... joints. They are kept as the world
    joint axes axis_w and link-frame origins origin_w (n x 3 each), the link
    rotations rot_w (n x 3 x 3), the end-effector rotation ee_rot, position
    ee_pos and Jacobian (jacobian(), read-only). Link k's frame origin lies
    on joint k's axis, so it serves as the joint's origin: the joint turns
    about it. The shape of q is checked against the model, and q is kept as
    given, not copied.
    """

    def __init__(self, model: RobotModel, q):
        c = model.chain
        self.model = model
        self.chain = c
        self.q = q = model.check_q(q)
        turn = q[:, None, None]
        local = np.sin(turn) * c.local_sin
        local += (1.0 - np.cos(turn)) * c.local_vers
        # off the rotation block the turn's terms are +0.0, which keeps
        # local_rest's entries there (a -0.0 reads +0.0)
        local = self.local = c.local_rest + local
        world = local.copy()
        np.matmul(local[:-1], local[1:], out=world[1:])  # the scan's first level
        shift = 2
        while shift < c.n:
            world[shift:] = world[:-shift] @ world[shift:]
            shift *= 2
        ee = world[-1] @ c.ee
        self.rot_w = world[:, :3, :3]
        self.origin_w = world[:, :3, 3]
        self.axis_w = (self.rot_w @ c.axes[:, :, None])[:, :, 0]
        self.ee_rot = ee[:3, :3]
        self.ee_pos = ee[:3, 3]
        # end-effector J: column j is [z_j x (p_ee - o_j); z_j]
        jac = self._jacobian = np.empty((6, c.n))
        jac[3:] = self.axis_w.T
        # z x r = z_yzx r_zxy - z_zxy r_yzx, both products from one gather
        # of J's axis rows and one of r = p_ee - o
        prod = jac.take(_AXIS_ROWS, 0)
        prod *= (self.ee_pos - self.origin_w).T.take(_ARM_ROWS, 0)
        np.subtract(prod[:3], prod[3:], out=jac[:3])
        jac.flags.writeable = False

    def jacobian(self) -> np.ndarray:
        """The end-effector J the constructor filled, 6 x n, read-only."""
        return self._jacobian


def forward_kinematics(model: RobotModel, q) -> Pose:
    """End-effector pose at configuration q."""
    st = ChainState(model, q)
    return Pose(quat_from_matrix(st.ee_rot), st.ee_pos)


def fk_jacobian_raw(model: RobotModel, q):
    """One chain pass: (ee rotation matrix, ee position, geometric Jacobian)."""
    st = ChainState(model, q)
    return st.ee_rot, st.ee_pos, st._jacobian


def geometric_jacobian(model: RobotModel, q) -> np.ndarray:
    """World-frame geometric Jacobian at the end-effector, shape (6, n)."""
    return ChainState(model, q).jacobian()


def jacobian_dot(model: RobotModel, q, qd) -> np.ndarray:
    """Time derivative of the geometric Jacobian along (q, qd), shape (6, n),
    from the spatial pass of dynamics.RigidBodyState."""
    from .dynamics import RigidBodyState  # dynamics imports this module

    return RigidBodyState(model, q, qd).jacobian_dot()


def pose_error_raw(rot_t: np.ndarray, pos_t: np.ndarray,
                   rot_c: np.ndarray, pos_c: np.ndarray) -> np.ndarray:
    """[dp; log(R_t R_c^T)] from raw rotation matrices and positions."""
    (xt, yt, zt), (xc, yc, zc) = pos_t.tolist(), pos_c.tolist()
    return np.array([xt - xc, yt - yc, zt - zc, *_rotvec(rot_t @ rot_c.T)])
