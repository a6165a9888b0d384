import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armmpc
from armmpc import load_bundled_model
from armmpc.checks import motion_transforms
from armmpc.dynamics import RigidBodyState
from armmpc.kinematics import (
    ChainState,
    Pose,
    forward_kinematics,
    geometric_jacobian,
    jacobian_dot,
    quat_from_matrix,
    quat_to_matrix,
    pose_error_raw,
    rotvec_from_matrix,
)
from armmpc.kinematics import _skew

from conftest import make_pendulum, make_rpr, random_config, rotvec_to_matrix, sequential_frames


def fd_jacobian(model, q, h=1e-6):
    """Finite-difference oracle for the geometric Jacobian."""
    n = model.n
    jac = np.zeros((6, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        hi = forward_kinematics(model, q + e)
        lo = forward_kinematics(model, q - e)
        jac[:3, j] = (hi.translation - lo.translation) / (2 * h)
        rel = hi.rotation_matrix @ lo.rotation_matrix.T
        jac[3:, j] = rotvec_from_matrix(rel) / (2 * h)
    return jac


def test_fk_pendulum_zero(pendulum):
    pose = forward_kinematics(pendulum, np.zeros(1))
    np.testing.assert_allclose(pose.translation, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pose.quaternion, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_fk_pendulum_quarter_turn(pendulum):
    pose = forward_kinematics(pendulum, np.array([math.pi / 2]))
    np.testing.assert_allclose(pose.translation, [0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name, q", [
    ("desk", [0.0, 0.0, -math.pi / 2, 0.0, -math.pi / 2, math.pi / 2]),
    ("rpr", [0.7, 0.3, -1.1]),
], ids=["desk", "rpr"])
def test_fk_matches_homogeneous_matrix_oracle(desk_model, name, q):
    # independent chain composition with plain 4x4 homogeneous matrices
    model = make_rpr() if name == "rpr" else desk_model
    q = np.array(q)

    def hom(rot, trans):
        out = np.eye(4)
        out[:3, :3] = rot
        out[:3, 3] = trans
        return out

    t_world = np.eye(4)
    for joint, qk in zip(model.joints, q):
        t_world = t_world @ hom(joint.parent_transform.rotation, joint.parent_transform.translation)
        t_world = t_world @ hom(rotvec_to_matrix(joint.axis * qk), np.zeros(3))
    t_world = t_world @ hom(model.ee_transform.rotation, model.ee_transform.translation)

    pose = forward_kinematics(model, q)
    np.testing.assert_allclose(pose.translation, t_world[:3, 3], atol=1e-12)
    np.testing.assert_allclose(pose.rotation_matrix, t_world[:3, :3], atol=1e-12)


CHAIN_MODELS = {
    "rs020n": lambda: load_bundled_model("rs020n"),
    "rs007n": lambda: load_bundled_model("rs007n"),
    "rpr": make_rpr,
    "pendulum": make_pendulum,  # one joint: the scan does zero rounds
}


@pytest.mark.parametrize("name", list(CHAIN_MODELS))
def test_frames_prefix_scan_matches_sequential_product(name, rng):
    model = CHAIN_MODELS[name]()
    for _ in range(200):
        st = ChainState(model, random_config(model, rng, margin=0.0))
        expected = sequential_frames(model, st.local[:, :3, :3], st.local[:, :3, 3])
        got_frames = (st.axis_w, st.origin_w, st.rot_w, st.ee_rot, st.ee_pos)
        for got, want in zip(got_frames, expected, strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", list(CHAIN_MODELS))
def test_local_transforms_feed_motion_transforms(name, rng):
    # the homogeneous stack holds each joint's transform from its parent
    # link, and is what xs is built from
    model = CHAIN_MODELS[name]()
    for _ in range(20):
        q = random_config(model, rng, margin=0.0)
        st = RigidBodyState(model, q, rng.standard_normal(model.n))
        np.testing.assert_array_equal(st.local[:, 3], np.tile([0.0, 0.0, 0.0, 1.0], (model.n, 1)))
        xs = motion_transforms(st.local[None])[0]
        for k, (joint, qk) in enumerate(zip(model.joints, q)):
            pt = joint.parent_transform
            rot, trans = pt.rotation @ rotvec_to_matrix(joint.axis * qk), pt.translation
            rot_k, trans_k = st.local[k, :3, :3], st.local[k, :3, 3]
            np.testing.assert_allclose(rot_k, rot, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(trans_k, trans, rtol=0.0, atol=1e-15)
            rt = rot_k.T
            x_k = np.zeros((6, 6))
            x_k[:3, :3] = x_k[3:, 3:] = rt
            x_k[3:, :3] = -rt @ _skew(trans_k)
            np.testing.assert_array_equal(xs[k], x_k)


def test_fk_dimension_mismatch(desk_model):
    with pytest.raises(ValueError, match="shape"):
        forward_kinematics(desk_model, np.zeros(5))


def test_jacobian_pendulum_column(pendulum):
    jac = geometric_jacobian(pendulum, np.zeros(1))
    np.testing.assert_allclose(jac[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_jacobian_matches_finite_differences(desk_model, rng):
    for _ in range(5):
        q = random_config(desk_model, rng)
        np.testing.assert_allclose(
            geometric_jacobian(desk_model, q), fd_jacobian(desk_model, q), atol=1e-6
        )


def test_jacobian_consistency_second_order(desk_model, rng):
    # the pose error of fk(q+dq) from fk(q) ~ J dq with O(|dq|^2) residual
    for _ in range(5):
        q = random_config(desk_model, rng)
        dq = rng.standard_normal(desk_model.n)
        dq *= 1e-4 / np.linalg.norm(dq)
        target, current = forward_kinematics(desk_model, q + dq), forward_kinematics(desk_model, q)
        err = pose_error_raw(target.rotation_matrix, target.translation,
                             current.rotation_matrix, current.translation)
        lin = geometric_jacobian(desk_model, q) @ dq
        assert np.linalg.norm(err - lin) <= 50.0 * np.linalg.norm(dq) ** 2


def test_jacobian_dot_zero_velocity(desk_model, rng):
    q = random_config(desk_model, rng)
    np.testing.assert_allclose(jacobian_dot(desk_model, q, np.zeros(6)), 0.0, atol=1e-15)


def test_jacobian_dot_matches_directional_fd(desk_model, rng):
    h = 1e-6
    for _ in range(5):
        q = random_config(desk_model, rng)
        qd = rng.standard_normal(desk_model.n)
        fd = (geometric_jacobian(desk_model, q + qd * h) - geometric_jacobian(desk_model, q - qd * h)) / (2 * h)
        np.testing.assert_allclose(jacobian_dot(desk_model, q, qd), fd, atol=1e-5)


def test_jacobian_dot_mixed_chain_matches_directional_fd():
    # the tilted middle axis turns with the first joint's omega
    model = make_rpr()
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(5):
        q = random_config(model, rng)
        qd = rng.standard_normal(model.n)
        fd = (geometric_jacobian(model, q + qd * h) - geometric_jacobian(model, q - qd * h)) / (2 * h)
        np.testing.assert_allclose(jacobian_dot(model, q, qd), fd, atol=1e-7)


def test_jacobian_dot_pendulum_analytic(pendulum):
    # column is d/dt [-sin q, cos q, 0; 0 0 1] at qd = 1
    q = np.array([0.4])
    qd = np.array([1.0])
    jd = jacobian_dot(pendulum, q, qd)
    np.testing.assert_allclose(jd[:3, 0], [-math.cos(q[0]), -math.sin(q[0]), 0.0], atol=1e-12)
    np.testing.assert_allclose(jd[3:, 0], 0.0, atol=1e-15)


def test_jacobian_dot_linear_in_velocity(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = rng.standard_normal(desk_model.n)
    np.testing.assert_allclose(
        jacobian_dot(desk_model, q, 3.7 * qd), 3.7 * jacobian_dot(desk_model, q, qd), atol=1e-12
    )


def test_jacobian_dot_from_a_fresh_interpreter():
    # jacobian_dot imports dynamics inside the call, since dynamics imports
    # kinematics; a fresh interpreter must still reach it. armmpc/__init__
    # imports every submodule in one fixed order before any named one, so
    # starting from kinematics stands for starting from any of them
    code = ("import armmpc.kinematics\n"
            "import numpy as np\n"
            "from armmpc import kinematics, load_bundled_model\n"
            "model = load_bundled_model('rs007n')\n"
            "print(kinematics.jacobian_dot(model, np.full(6, 0.3), np.ones(6)).shape)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(armmpc.__path__[0]).parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(6, 6)"


def branching_canonical_quat(q):
    """One quaternion's double-cover sign fixed entry by entry: the oracle of
    canonical_quat's array form."""
    if q[0] < 0:
        return -q
    if q[0] == 0:
        for c in q[1:]:
            if c != 0:
                return q if c > 0 else -q
    return q


def scalar_quat_to_matrix(q):
    """One quaternion's rotation matrix from its four scalars: the oracle of
    quat_to_matrix's array form."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_pose_stack_rows_are_the_single_poses_bit_for_bit(rng):
    # negative w flips; w = 0 (either sign) leaves the first nonzero entry to
    # decide, negative or positive; each row and each single pose is the
    # branching oracle's quaternion and the scalar oracle's matrix
    quats = np.vstack([rng.standard_normal((6, 4)),
                       [[-0.5, 0.5, -0.5, 0.5], [0.0, 0.0, -0.6, 0.8], [-0.0, 0.0, 0.6, -0.8],
                        [0.0, 0.6, 0.0, -0.8], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]])
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    translations = rng.standard_normal((len(quats), 3))
    stack = Pose(quats, translations)
    # the pose keeps read-only copies, and the caller's arrays stay writable
    assert quats.flags.writeable and translations.flags.writeable
    assert stack.rotation_matrix.shape == (len(quats), 3, 3)
    for k, (quat, translation) in enumerate(zip(quats, translations)):
        single = Pose(quat, translation)
        want = branching_canonical_quat(quat)
        assert same_bits(single.quaternion, want) and same_bits(stack.quaternion[k], want)
        assert same_bits(single.rotation_matrix, scalar_quat_to_matrix(want))
        assert same_bits(stack.rotation_matrix[k], scalar_quat_to_matrix(want))
        assert same_bits(stack.translation[k], translation)
        for arr in (single.quaternion, single.translation, single.rotation_matrix):
            assert not arr.flags.writeable
    for arr in (stack.quaternion, stack.translation, stack.rotation_matrix):
        assert not arr.flags.writeable


@pytest.mark.parametrize("quat, translation", [
    ([1.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0]),
], ids=["non-unit-quaternion", "nan-quaternion", "infinite-translation"])
def test_a_stack_with_one_bad_row_raises_the_single_poses_error(quat, translation):
    quats, translations = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)), np.zeros((4, 3))
    quats[2], translations[2] = quat, translation
    with pytest.raises(ValueError) as single:
        Pose(np.array(quat), np.array(translation))
    with pytest.raises(ValueError) as stack:
        Pose(quats, translations)
    assert str(stack.value) == str(single.value)


@pytest.mark.parametrize("quat_shape, translation_shape", [
    ((4,), (2,)), ((3, 4), (3,)), ((3, 4), (2, 3)), ((3, 4), (3, 4)), ((4, 4, 4), (4, 4, 3)),
    ((3,), (3,)), ((2, 3), (2, 3)),
])
def test_a_pose_of_mismatched_shapes_is_refused(quat_shape, translation_shape):
    quat = np.zeros(quat_shape)
    quat[..., :1] = 1.0
    with pytest.raises(ValueError, match="must have shape"):
        Pose(quat, np.zeros(translation_shape))


def test_task_error_identity():
    pose = Pose(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.2, 0.3]))
    rot, pos = pose.rotation_matrix, pose.translation
    np.testing.assert_allclose(pose_error_raw(rot, pos, rot, pos), np.zeros(6), atol=1e-15)


def test_task_error_pure_z_rotation():
    target = Pose(quat_from_matrix(rotvec_to_matrix([0, 0, math.pi / 2])), np.zeros(3))
    err = pose_error_raw(target.rotation_matrix, target.translation, np.eye(3), np.zeros(3))
    np.testing.assert_allclose(err, [0, 0, 0, 0, 0, math.pi / 2], atol=1e-12)


def test_task_error_exp_log_roundtrip(rng):
    for _ in range(20):
        qa = rng.standard_normal(4)
        qb = rng.standard_normal(4)
        pa = Pose(qa / np.linalg.norm(qa), rng.standard_normal(3))
        pb = Pose(qb / np.linalg.norm(qb), rng.standard_normal(3))
        err = pose_error_raw(pa.rotation_matrix, pa.translation, pb.rotation_matrix, pb.translation)
        rec_rot = rotvec_to_matrix(err[3:]) @ pb.rotation_matrix
        rec_pos = pb.translation + err[:3]
        np.testing.assert_allclose(rec_rot, pa.rotation_matrix, atol=1e-9)
        np.testing.assert_allclose(rec_pos, pa.translation, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4), st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_task_error_zero_iff_equal(qa, qb):
    qa = np.asarray(qa)
    qb = np.asarray(qb)
    na, nb = np.linalg.norm(qa), np.linalg.norm(qb)
    if na < 1e-3 or nb < 1e-3:
        return
    pa = Pose(qa / na, np.zeros(3))
    pb = Pose(qb / nb, np.zeros(3))
    err = pose_error_raw(pa.rotation_matrix, pa.translation, pb.rotation_matrix, pb.translation)
    # same rotation up to the double cover
    dist = min(np.linalg.norm(pa.quaternion - pb.quaternion),
               np.linalg.norm(pa.quaternion + pb.quaternion))
    if dist < 1e-12:
        assert np.linalg.norm(err) < 1e-9
    elif dist > 1e-6:
        assert np.linalg.norm(err) > 1e-8


def test_rotvec_near_pi_deterministic():
    rot = rotvec_to_matrix(np.array([0.0, 0.0, math.pi]))
    v1 = rotvec_from_matrix(rot)
    v2 = rotvec_from_matrix(rot.copy())
    np.testing.assert_allclose(v1, v2)
    assert np.linalg.norm(v1) <= math.pi + 1e-12
    np.testing.assert_allclose(rotvec_to_matrix(v1), rot, atol=1e-9)


def numpy_rotvec_from_matrix(rot):
    """The logarithm map on numpy arrays, as it was written before the
    generic branch moved to Python floats."""
    rot = np.asarray(rot, dtype=float)
    cos_angle = max(-1.0, min(1.0, (np.trace(rot) - 1.0) * 0.5))
    angle = math.acos(cos_angle)
    skew_part = 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    if angle < 1e-7:
        return skew_part
    if angle > math.pi - 1e-6:
        bb = 0.5 * (rot + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(bb), 0.0, None))
        lead = int(np.argmax(np.abs(np.diag(bb))))
        signs = np.sign(bb[:, lead])
        signs[signs == 0] = 1.0
        axis = axis * signs * (1.0 if axis[lead] >= 0 else -1.0)
        norm = np.linalg.norm(axis)
        if norm > 0:
            axis = axis / norm
        if angle >= math.pi:
            axis = -axis if axis[lead] < 0 else axis
        return axis * angle
    return skew_part * (angle / math.sin(angle))


def test_rotvec_from_matrix_matches_numpy_reference_bit_for_bit(rng):
    for _ in range(2000):
        v = rng.standard_normal(3)
        rot = rotvec_to_matrix(v * rng.uniform(0.0, math.pi) / np.linalg.norm(v))
        np.testing.assert_array_equal(rotvec_from_matrix(rot), numpy_rotvec_from_matrix(rot))


# each angle on its intended side of a branch threshold (1e-7 and pi - 1e-6)
# once computed back from the matrix's trace
@pytest.mark.parametrize("angle, branch", [
    (0.0, "zero"), (0.5e-7, "zero"), (2e-7, "generic"),
    (math.pi - 2e-6, "generic"), (math.pi - 0.5e-6, "pi"), (math.pi, "pi"),
])
def test_rotvec_from_matrix_branches_match_numpy_reference(rng, angle, branch):
    for _ in range(50):
        v = rng.standard_normal(3)
        rot = rotvec_to_matrix(v * angle / np.linalg.norm(v))
        seen = math.acos(max(-1.0, min(1.0, (np.trace(rot) - 1.0) * 0.5)))
        assert branch == ("zero" if seen < 1e-7 else "pi" if seen > math.pi - 1e-6 else "generic")
        np.testing.assert_array_equal(rotvec_from_matrix(rot), numpy_rotvec_from_matrix(rot))


def test_quat_matrix_roundtrip(rng):
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        if q[0] < 0:
            q = -q
        np.testing.assert_allclose(quat_from_matrix(quat_to_matrix(q)), q, atol=1e-9)
