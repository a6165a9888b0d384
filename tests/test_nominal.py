import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armmpc import dynamics, nominal
from armmpc.dynamics import RigidBodyState, bias_forces, forward_dynamics, mass_matrix
from armmpc.kinematics import (ChainState, Pose, forward_kinematics, geometric_jacobian,
                               jacobian_dot, pose_error_raw)
from armmpc.nominal import (
    FULL_POSE,
    POSITION,
    ORIENTATION,
    PostureSpec,
    TaskSpec,
    compact_svd_pinv,
    default_posture,
    default_task_hierarchy,
    ik_rollout,
    osc_rollout,
    osc_torque,
)

from conftest import ik_step, osc_torque_per_level, random_config, repeat_pose


def full_pose_task(gain=1.0):
    return (TaskSpec(priority=1, selector=FULL_POSE, gain=gain),)


def pos_ori_tasks(gain=1.0):
    return (
        TaskSpec(priority=1, selector=POSITION, gain=gain),
        TaskSpec(priority=2, selector=ORIENTATION, gain=gain),
    )


def test_pinv_identity():
    np.testing.assert_allclose(compact_svd_pinv(np.eye(2), 0.01), np.eye(2), atol=1e-12)


def test_pinv_truncates_small_singular_values():
    j = np.diag([1.0, 1e-8])
    np.testing.assert_allclose(compact_svd_pinv(j, 1e-2), np.diag([1.0, 0.0]), atol=1e-12)


def test_pinv_full_rank_inverse(rng):
    j = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    pinv = compact_svd_pinv(j, 1e-6)
    np.testing.assert_allclose(pinv @ j, np.eye(6), atol=1e-9)


def test_pinv_zero_matrix():
    out = compact_svd_pinv(np.zeros((3, 4)), 0.5)
    assert out.shape == (4, 3)
    np.testing.assert_allclose(out, 0.0)


def gram_pinv(jac, rel_threshold):
    """The IK's truncated pseudoinverse, J' pinv(J J') at rel_threshold**2."""
    return jac.T @ nominal._psd_pinv(jac @ jac.T, rel_threshold**2)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("rel_threshold", [1e-2, 0.2])
def test_pinv_gram_path_matches_svd_path_at_threshold(rng, rows, side, rel_threshold):
    # the smallest singular value sits just below or just above the cut; the
    # IK's Gram path J' pinv(J J') against the plain SVD. The Gram path
    # squares the condition number, so a kept direction at the cut carries
    # about eps / rel_threshold**2 relative error (3e-12 seen at 1e-2)
    tol = 100 * np.finfo(float).eps / rel_threshold**2
    kept = rows if rows == 1 or side > 1 else rows - 1
    sigma = 3.0 * np.geomspace(1.0, rel_threshold * side, rows)
    for _ in range(20):
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((6, rows)))[0]
        jac = (u * sigma) @ v.T
        gram_path = gram_pinv(jac, rel_threshold)
        svd_path = compact_svd_pinv(jac, rel_threshold)
        assert np.linalg.matrix_rank(gram_path) == np.linalg.matrix_rank(svd_path) == kept
        assert np.abs(gram_path - svd_path).max() <= tol * np.abs(svd_path).max()


@pytest.fixture
def dsyevd_calls(monkeypatch):
    """Count _psd_pinv's LAPACK eigendecompositions (dsyevd, eigh's routine):
    the closed-form 3 x 3 path makes none."""
    calls = []
    dsyevd = nominal.dsyevd

    def counting(*args, **kwargs):
        calls.append(1)
        return dsyevd(*args, **kwargs)

    monkeypatch.setattr(nominal, "dsyevd", counting)
    return calls


MARGIN = nominal._CLOSED_FORM_MARGIN


@pytest.mark.parametrize("ratio", [MARGIN * (1 - 1e-6), MARGIN * (1 + 1e-6), 1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("rel_threshold", [1e-2, 0.2])
def test_pinv_closed_form_hands_off_at_its_margin(rng, dsyevd_calls, ratio, rel_threshold):
    # 3 x 6 inputs whose Gram eigenvalues have lambda_min / (rel**2 lambda_max)
    # = ratio: just around the closed-form path's hand-off margin, or just
    # around the cut itself. Above the margin the Gram matrix is inverted in
    # closed form (no dsyevd), below it dsyevd truncates; either way the result
    # matches the SVD path within the Gram path's tolerance
    tol = 100 * np.finfo(float).eps / rel_threshold**2
    kept = 3 if ratio > 1 else 2
    sigma = 3.0 * np.geomspace(1.0, rel_threshold * np.sqrt(ratio), 3)
    for _ in range(20):
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        jac = (u * sigma) @ v.T
        del dsyevd_calls[:]
        gram_path = gram_pinv(jac, rel_threshold)
        assert len(dsyevd_calls) == (0 if ratio > MARGIN else 1)
        svd_path = compact_svd_pinv(jac, rel_threshold)
        assert np.linalg.matrix_rank(gram_path) == np.linalg.matrix_rank(svd_path) == kept
        assert np.abs(gram_path - svd_path).max() <= tol * np.abs(svd_path).max()


@settings(max_examples=200, deadline=None)
@given(st.floats(-9.0, 0.0), st.floats(-9.0, 0.0), st.floats(1e-7, 0.45),
       st.integers(0, 2**32 - 1))
def test_pinv_determinant_test_keeps_only_far_past_the_cut(log_r1, log_r2, floor, seed):
    # with eigenvalues r1 <= r2 <= 1, det / trace^3 = r1 r2 / (1 + r1 + r2)^3:
    # where det >= t trace^3 lets the closed form skip the cubic, the smallest
    # eigenvalue clears the relative cut t by 6.75, so the trigonometric test
    # would keep every direction too, and the inverse is the plain inverse
    r1, r2 = sorted((10.0**log_r1, 10.0**log_r2))
    u = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
    sym = (u * [r1, r2, 1.0]) @ u.T
    cut = max(MARGIN * floor, nominal._CLOSED_FORM_FLOOR)
    if np.linalg.det(sym) >= 1.01 * cut * np.trace(sym)**3:
        assert r1 >= 6.75 * cut
        np.testing.assert_allclose(nominal._psd_pinv(sym, floor) @ sym, np.eye(3),
                                   atol=1e-12 / r1)


@pytest.mark.parametrize("rank", [0, 1])
@pytest.mark.parametrize("rel_threshold", [1e-2, 0.2])
def test_pinv_gram_path_rank_one_and_zero(rng, rank, rel_threshold):
    # a rank-1 or all-zero 3 x 6 input: the closed form hands off, and dsyevd
    # keeps the one direction or returns the zero matrix
    tol = 100 * np.finfo(float).eps / rel_threshold**2
    for _ in range(20):
        jac = rank * 3.0 * np.outer(rng.standard_normal(3), rng.standard_normal(6))
        gram_path = gram_pinv(jac, rel_threshold)
        svd_path = compact_svd_pinv(jac, rel_threshold)
        assert gram_path.shape == (6, 3)
        assert np.linalg.matrix_rank(gram_path) == np.linalg.matrix_rank(svd_path) == rank
        if rank == 0:
            assert not gram_path.any()
        else:
            assert np.abs(gram_path - svd_path).max() <= tol * np.abs(svd_path).max()


@pytest.mark.parametrize("ratio", [MARGIN * (1 - 1e-6), MARGIN * (1 + 1e-6), 1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("rel_threshold", [1e-2, 0.2])
def test_psd_pinv_of_osc_form_matches_truncated_svd(rng, dsyevd_calls, ratio, rel_threshold):
    # the task-space inertia's input J M^-1 J' (3 x 3, J 3 x 6), built so its
    # eigenvalues have lambda_min / (rel lambda_max) = ratio; the truncation
    # acts on the matrix's own eigenvalues, so a kept direction at the cut
    # carries about eps / rel_threshold relative error
    tol = 100 * np.finfo(float).eps / rel_threshold
    kept = 3 if ratio > 1 else 2
    lam = 3.0 * np.geomspace(1.0, rel_threshold * ratio, 3)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        minv = a @ a.T + 6.0 * np.eye(6)
        root = np.linalg.cholesky(minv)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        jac = np.linalg.solve(root.T, v @ (np.sqrt(lam)[:, None] * u.T)).T
        sym = jac @ minv @ jac.T
        del dsyevd_calls[:]
        got = nominal._psd_pinv(sym, rel_threshold)
        assert len(dsyevd_calls) == (0 if ratio > MARGIN else 1)
        left, sv, right = np.linalg.svd(sym)
        keep = sv >= rel_threshold * sv[0]
        ref = (right[keep].T / sv[keep]) @ left[:, keep].T
        assert np.linalg.matrix_rank(got) == np.linalg.matrix_rank(ref) == kept
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def eigh_pinv(sym, floor):
    """_psd_pinv's truncation on np.linalg.eigh: the reference for its
    direct LAPACK call."""
    vals, vecs = np.linalg.eigh(sym)
    if vals[-1] <= 0.0:
        return np.zeros_like(sym)
    keep = vals >= floor * vals[-1]
    return (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T


@pytest.mark.parametrize("size", [3, 6])
@pytest.mark.parametrize("spectrum", ["truncated", "full-rank", "zero"])
def test_psd_pinv_is_the_eigh_truncation_to_the_bit(rng, dsyevd_calls, size, spectrum):
    # the OSC's J W J' (J size x 6 with W SPD, not exactly symmetric), its
    # smallest eigenvalue at 1e-3 of the cut, or at 1.5 times the cut: kept,
    # yet inside the closed form's margin, so a 3 x 3 goes to LAPACK too;
    # dsyevd is the routine and the triangle eigh uses, so the same bits
    floor = 1e-2
    low = {"truncated": 1e-3 * floor, "full-rank": 1.5 * floor, "zero": 1.0}[spectrum]
    lam = 3.0 * np.append(np.geomspace(1.0, 0.5, size - 1), low)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        minv = a @ a.T + 6.0 * np.eye(6)
        root = np.linalg.cholesky(minv)
        u = np.linalg.qr(rng.standard_normal((size, size)))[0]
        v = np.linalg.qr(rng.standard_normal((6, size)))[0]
        jac = np.linalg.solve(root.T, v @ (np.sqrt(lam)[:, None] * u.T)).T
        sym = np.zeros((size, size)) if spectrum == "zero" else jac @ (minv @ jac.T)
        del dsyevd_calls[:]
        got = nominal._psd_pinv(sym, floor)
        assert len(dsyevd_calls) == 1
        np.testing.assert_array_equal(got, eigh_pinv(sym, floor))
        rank = {"truncated": size - 1, "full-rank": size, "zero": 0}[spectrum]
        assert np.linalg.matrix_rank(got) == rank


def test_psd_pinv_of_a_huge_3x3_is_left_to_lapack(rng, dsyevd_calls):
    # past entries of about 1e102 the determinant overflows to inf, which
    # the closed form would take for a kept matrix and scale the adjugate by
    # 1/inf = 0; such a matrix goes to dsyevd, the eigh truncation's routine
    got = nominal._psd_pinv(np.diag([1e110] * 3), 1e-2)
    np.testing.assert_allclose(got, 1e-110 * np.eye(3), rtol=1e-14, atol=0)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    sym = (u * [3e105, 2e105, 1e105]) @ u.T
    del dsyevd_calls[:]
    got = nominal._psd_pinv(sym, 1e-2)
    assert len(dsyevd_calls) == 1
    np.testing.assert_array_equal(got, eigh_pinv(sym, 1e-2))
    np.testing.assert_allclose(got @ sym, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("size", [3, 6])
@pytest.mark.parametrize("where", [(0, 0), (2, 1), (1, 2)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_psd_pinv_rejects_a_matrix_that_is_not_finite(size, where, value):
    # eigh raises only when its iteration fails: with one NaN on the
    # diagonal it returns finite eigenvalues, and the closed form would
    # take an infinite determinant for a large one
    sym = np.eye(size)
    sym[where] = value
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        nominal._psd_pinv(sym, 1e-2)


def test_pinv_bad_threshold():
    with pytest.raises(ValueError):
        compact_svd_pinv(np.eye(2), 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-4, 0.3), st.floats(1.5, 10.0), st.integers(0, 10_000))
def test_pinv_truncation_monotone(thresh, factor, seed):
    # raising the threshold never increases the operator norm of the pinv
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((4, 5))
    low = np.linalg.norm(compact_svd_pinv(j, thresh), 2)
    high = np.linalg.norm(compact_svd_pinv(j, min(thresh * factor, 0.999)), 2)
    assert high <= low + 1e-12


def test_ik_step_zero_error(desk_model, rng):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q)
    qd = ik_step(ChainState(desk_model, q), full_pose_task(), pose, 1e-2)
    np.testing.assert_allclose(qd, 0.0, atol=1e-12)


@pytest.mark.parametrize("rel_threshold", [-0.5, 0.0, 1.5])
def test_ik_step_bad_threshold(desk_model, rel_threshold):
    pose = forward_kinematics(desk_model, np.zeros(6))
    with pytest.raises(ValueError):
        ik_step(ChainState(desk_model, np.zeros(6)), pos_ori_tasks(), pose, rel_threshold)


def test_ik_step_single_task_is_pinv(desk_model, rng):
    q = random_config(desk_model, rng)
    target = forward_kinematics(desk_model, q + 0.05 * rng.standard_normal(6))
    qd = ik_step(ChainState(desk_model, q), full_pose_task(gain=1.0), target, 1e-6)
    jac = geometric_jacobian(desk_model, q)
    current = forward_kinematics(desk_model, q)
    err = pose_error_raw(target.rotation_matrix, target.translation,
                         current.rotation_matrix, current.translation)
    np.testing.assert_allclose(qd, compact_svd_pinv(jac, 1e-6) @ err, atol=1e-10)


def test_ik_hierarchy_secondary_in_primary_nullspace(desk_model, rng):
    q = random_config(desk_model, rng)
    target = forward_kinematics(desk_model, q + 0.1 * rng.standard_normal(6))
    tasks = pos_ori_tasks()
    qd_both = ik_step(ChainState(desk_model, q), tasks, target, 1e-6)
    qd_first = ik_step(ChainState(desk_model, q), tasks[:1], target, 1e-6)
    jac_pos = geometric_jacobian(desk_model, q)[:3]
    assert np.linalg.norm(jac_pos @ (qd_both - qd_first)) <= 1e-9


def test_nullspace_projector_idempotent(desk_model, rng):
    q = random_config(desk_model, rng)
    jac = geometric_jacobian(desk_model, q)[:3]
    pinv = compact_svd_pinv(jac, 1e-2)
    proj = np.eye(6) - pinv @ jac
    assert np.linalg.norm(proj @ proj - proj) <= 1e-9


def test_ik_rollout_fixed_point(desk_model, rng):
    q0 = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q0)
    roll = ik_rollout(ChainState(desk_model, q0), *repeat_pose(pose, 6), 1e-3, 1e-2,
                      pos_ori_tasks(gain=10.0))
    np.testing.assert_allclose(roll.q_hat, np.tile(q0, (6, 1)), atol=1e-10)
    assert roll.j_stack.shape == (6, 6, 6)


def test_ik_rollout_converges_on_reachable_target(planar_2dof):
    q0 = np.array([0.3, 0.6])
    start = forward_kinematics(planar_2dof, q0)
    target_pos = start.translation + np.array([-0.1, -0.05, 0.0])
    target = Pose(start.quaternion, target_pos)
    tasks = (TaskSpec(priority=1, selector=POSITION, gain=20.0),)
    steps = 400
    roll = ik_rollout(ChainState(planar_2dof, q0), *repeat_pose(target, steps), 1e-3, 1e-2, tasks)
    final = forward_kinematics(planar_2dof, roll.q_hat[-1])
    assert np.linalg.norm(final.translation - target_pos) <= 1e-3


def test_ik_rollout_degenerate_window(desk_model, rng):
    q0 = random_config(desk_model, rng)
    roll = ik_rollout(ChainState(desk_model, q0), *repeat_pose(forward_kinematics(desk_model, q0), 1),
                      1e-3, 1e-2, pos_ori_tasks())
    assert roll.q_hat.shape == (1, 6)
    np.testing.assert_allclose(roll.q_hat[0], q0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("stack", ["q_hat", "qd_hat", "j_stack", "err_stack"])
def test_nominal_rollout_refuses_a_stack_that_is_not_finite(desk_model, rng, stack, value):
    # each of the four stacks is checked; a finite entry whose square
    # overflows is still finite and passes
    q0 = random_config(desk_model, rng)
    roll = ik_rollout(ChainState(desk_model, q0), *repeat_pose(forward_kinematics(desk_model, q0), 3),
                      1e-3, 1e-2, pos_ori_tasks())
    stacks = {name: getattr(roll, name).copy() for name in ("q_hat", "qd_hat", "j_stack", "err_stack")}
    stacks[stack].flat[-1] = value
    with pytest.raises(ValueError, match="rollout has non-finite entries"):
        nominal.NominalRollout(**stacks)
    stacks[stack].flat[-1] = 1e200
    nominal.NominalRollout(**stacks)


def test_rollouts_take_none_twists_as_zero_and_check_their_targets(desk_model, rng):
    q0 = random_config(desk_model, rng)
    targets = repeat_pose(forward_kinematics(desk_model, q0 + 0.05), 4)
    for rollout, start in ((ik_rollout, ChainState(desk_model, q0)),
                           (osc_rollout, RigidBodyState(desk_model, q0))):
        none = rollout(start, *targets, 1e-3, 1e-2, pos_ori_tasks())
        zero = rollout(start, *targets, 1e-3, 1e-2, pos_ori_tasks(), twists=np.zeros((4, 6)))
        assert np.array_equal(none.q_hat, zero.q_hat)
        assert np.array_equal(none.qd_hat, zero.qd_hat)
        with pytest.raises(ValueError, match="at least one target"):
            rollout(start, np.empty((0, 3, 3)), np.empty((0, 3)), 1e-3, 1e-2, pos_ori_tasks())
        with pytest.raises(ValueError, match=r"twists must be \(4, 6\)"):
            rollout(start, *targets, 1e-3, 1e-2, pos_ori_tasks(), twists=np.zeros((3, 6)))


SHAPES = {  # (rotations, positions) of a rollout's targets that disagree
    "positions-short": ((4, 3, 3), (3, 3)),
    "positions-wide": ((4, 3, 3), (4, 4)),
    "rotations-flat": ((4, 9), (4, 3)),
    "one-target-unstacked": ((3, 3), (3,)),
    "transposed": ((3, 3, 4), (3, 4)),
}


@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("rollout", [ik_rollout, osc_rollout], ids=lambda f: f.__name__)
def test_rollouts_refuse_targets_of_the_wrong_shape(desk_model, rollout, shapes):
    state = RigidBodyState(desk_model, np.zeros(6))
    with pytest.raises(ValueError, match=r"targets must be \(m, 3, 3\), \(m, 3\)"):
        rollout(state, np.zeros(shapes[0]), np.zeros(shapes[1]), 1e-3, 1e-2,
                default_task_hierarchy())


@pytest.mark.parametrize("shapes", [((1, 3, 3), (1, 3)), ((3, 3), (1, 3)), ((9,), (3,)),
                                    ((3, 3), (4,))], ids=["stacked", "stacked-position",
                                                          "flat-rotation", "long-position"])
def test_osc_torque_refuses_a_target_of_the_wrong_shape(desk_model, shapes):
    state = RigidBodyState(desk_model, np.zeros(6))
    with pytest.raises(ValueError, match=r"target must be \(3, 3\), \(3,\)"):
        osc_torque(state, default_task_hierarchy(), np.zeros(shapes[0]), np.zeros(shapes[1]),
                   1e-2)


def hand_recursion(jac, err, tasks, rel_threshold, minv=None):
    """Projected task Jacobians of the levels' pose rows in priority order,
    through the IK projector I - J+ J, or the dynamically consistent one
    I - M^-1 J^T (J M^-1 J^T)+ J when minv is given; and the IK's joint
    velocity, each level adding J_p+ (gain e - J qd). As in the controllers,
    a level after the first whose J_p is below nominal._NO_FREEDOM of its J
    (Frobenius norms) has no freedom left: its J_p is zero and it adds
    nothing."""
    proj = np.eye(jac.shape[1])
    qd = np.zeros(jac.shape[1])
    blocks = []
    for i, task in enumerate(sorted(tasks, key=lambda t: t.priority)):
        jac_t = jac[task.rows]
        jac_proj = jac_t @ proj
        if i and np.linalg.norm(jac_proj) <= nominal._NO_FREEDOM * np.linalg.norm(jac_t):
            jac_proj = np.zeros_like(jac_proj)
        blocks.append(jac_proj)
        if minv is None:
            jbar = compact_svd_pinv(jac_proj, rel_threshold)
            qd = qd + jbar @ (task.gain * err[task.rows] - jac_t @ qd)
        else:
            jbar = minv @ jac_proj.T @ compact_svd_pinv(jac_proj @ minv @ jac_proj.T, rel_threshold)
        proj = proj - jbar @ jac_proj
    return np.vstack(blocks), qd


HIERARCHIES = {  # the two orders of position and orientation by their first level
    "position": (POSITION, ORIENTATION),
    "orientation": (ORIENTATION, POSITION),
    "full_pose": (FULL_POSE,),
    # nothing is left for the third level: its projected Jacobian is
    # roundoff, and the level adds nothing
    "position-orientation-full_pose": (POSITION, ORIENTATION, FULL_POSE),
}


@pytest.mark.parametrize("selectors", HIERARCHIES.values(), ids=HIERARCHIES.keys())
def test_rollout_stacks_match_hand_built_projection(desk_model, rng, selectors):
    # levels passed in reverse priority order; the stacks follow the priorities
    q = random_config(desk_model, rng)
    qd = 0.2 * rng.standard_normal(6)
    target = forward_kinematics(desk_model, q + 0.05 * rng.standard_normal(6))
    tasks = tuple(TaskSpec(priority=level + 1, selector=selector, gain=5.0 - 2.0 * level)
                  for level, selector in reversed(list(enumerate(selectors))))
    jac = geometric_jacobian(desk_model, q)
    current = forward_kinematics(desk_model, q)
    err = pose_error_raw(target.rotation_matrix, target.translation,
                         current.rotation_matrix, current.translation)
    err_hand = np.concatenate([err[task.rows] for task in tasks[::-1]])
    stack_hand, qd_hand = hand_recursion(jac, err, tasks, 1e-2)

    ik = ik_rollout(ChainState(desk_model, q), *repeat_pose(target, 3), 1e-3, 1e-2, tasks)
    np.testing.assert_allclose(ik.j_stack[0], stack_hand, atol=1e-12)
    np.testing.assert_allclose(ik.err_stack[0], err_hand, atol=1e-12)
    # the reference inverts a level of more than 3 rows by SVD, the IK by its
    # Gram matrix, whose squared condition number bounds the difference; a
    # full pose after position and orientation is inverted by neither
    svd_path = selectors == (FULL_POSE,)
    tol = 100 * np.finfo(float).eps / 1e-2**2 * np.abs(qd_hand).max() if svd_path else 1e-12
    qd_ik = ik_step(ChainState(desk_model, q), tasks, target, 1e-2)
    assert np.abs(qd_ik - qd_hand).max() <= tol

    minv = np.linalg.inv(mass_matrix(desk_model, q))
    osc = osc_rollout(RigidBodyState(desk_model, q, qd), *repeat_pose(target, 3), 1e-3, 1e-2, tasks)
    np.testing.assert_allclose(osc.j_stack[0], hand_recursion(jac, err, tasks, 1e-2, minv)[0],
                               atol=1e-9)
    np.testing.assert_allclose(osc.err_stack[0], err_hand, atol=1e-12)


def test_ik_level_without_freedom_adds_nothing(desk_model, rng):
    # after position and orientation no joint motion is left on six joints,
    # so a full-pose third level should leave the command as it is
    q = random_config(desk_model, rng)
    target = forward_kinematics(desk_model, q + 0.05 * rng.standard_normal(6))
    two = pos_ori_tasks()
    three = two + (TaskSpec(priority=3, selector=FULL_POSE),)
    state = ChainState(desk_model, q)
    np.testing.assert_allclose(ik_step(state, three, target, 1e-2),
                               ik_step(state, two, target, 1e-2), atol=1e-9)


def test_osc_level_without_freedom_adds_nothing(desk_model, rng):
    # the OSC twin: the posture still acts through the projector of the two
    # levels that use up the joints. The cut is 1e-4, because at this q the
    # default 1e-2 drops two eigenvalues of the orientation level's J_p M^-1
    # J_p' (at 2e-3 and 3e-3 of its largest) and leaves their motion free
    q = random_config(desk_model, rng)
    qd = 0.2 * rng.standard_normal(6)
    target = forward_kinematics(desk_model, q + 0.05 * rng.standard_normal(6))
    posture = default_posture(q + 0.1 * rng.standard_normal(6))
    two = pos_ori_tasks()
    three = two + (TaskSpec(priority=3, selector=FULL_POSE),)
    state = RigidBodyState(desk_model, q, qd)
    rot, pos = target.rotation_matrix, target.translation
    np.testing.assert_allclose(osc_torque(state, three, rot, pos, 1e-4, posture=posture),
                               osc_torque(state, two, rot, pos, 1e-4, posture=posture),
                               atol=1e-9)


@pytest.mark.parametrize("model", ["desk_model", "desk_model_large", "seven_joint_model"])
@pytest.mark.parametrize("selectors", [(POSITION, ORIENTATION), (FULL_POSE,),
                                       (POSITION, ORIENTATION, FULL_POSE)],
                         ids=["position-orientation", "full-pose", "three-levels"])
@pytest.mark.parametrize("posture", [False, True], ids=["no-posture", "posture"])
@pytest.mark.parametrize("twist", [False, True], ids=["no-twist", "twist"])
def test_osc_torque_is_the_per_level_torque_to_the_bit(request, rng, model, selectors, posture,
                                                        twist):
    # one reference force over all stacked rows, each level mapping its own
    # rows, against each level forming its force from its own rows: every
    # entry is the same sum in the same order, so the torques agree to the
    # bit; a full pose makes a 6 x 6 task-space inertia, and its own gains
    # stand in for the defaults of the levels without kp and kd
    model = request.getfixturevalue(model)
    n = model.n
    tasks = tuple(TaskSpec(priority=i + 1, selector=sel, kp=np.full(3, 80.0 + i),
                           kd=np.array([6.0, 9.0, 12.0]))
                  if sel != FULL_POSE else TaskSpec(priority=i + 1, selector=sel)
                  for i, sel in enumerate(selectors))
    for _ in range(10):
        q = random_config(model, rng)
        state = RigidBodyState(model, q, 0.5 * rng.standard_normal(n))
        target = forward_kinematics(model, q + 0.1 * rng.standard_normal(n))
        kwargs = {"posture": default_posture(q + 0.1 * rng.standard_normal(n)) if posture else None,
                  "twist": 0.3 * rng.standard_normal(6) if twist else None}
        np.testing.assert_array_equal(
            osc_torque(state, tasks, target.rotation_matrix, target.translation, 1e-2, **kwargs),
            osc_torque_per_level(state, tasks, target, 1e-2, **kwargs))


@pytest.mark.parametrize("size", [3, 7])
def test_osc_torque_rejects_a_twist_that_is_not_a_6_vector(desk_model, rng, size):
    # a 3-vector used to fail in numpy's broadcasting, on the orientation
    # level's empty twist[3:6], and a 7-vector to pass with its last entry
    # ignored
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q)
    with pytest.raises(ValueError, match=r"twist must be \(6,\)"):
        osc_torque(RigidBodyState(desk_model, q), default_task_hierarchy(),
                   pose.rotation_matrix, pose.translation, 1e-2, twist=np.zeros(size))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["osc_torque", "osc_rollout"])
def test_osc_refuses_a_velocity_that_is_not_finite(desk_model, rng, call, value):
    # a NaN qd used to give an all-NaN torque without a word, and an
    # infinite one a numpy warning besides: the state now refuses it when it
    # is built, before its velocity pass
    q = random_config(desk_model, rng)
    qd = np.zeros(6)
    qd[1] = value
    pose = forward_kinematics(desk_model, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="qd is not finite"):
            state = RigidBodyState(desk_model, q, qd)
            if call == "osc_torque":
                osc_torque(state, default_task_hierarchy(), pose.rotation_matrix,
                           pose.translation, 1e-2)
            else:
                osc_rollout(state, *repeat_pose(pose, 3), 1e-3, 1e-2, default_task_hierarchy())


@pytest.mark.parametrize("field, value", [("kp", np.ones(5)), ("kd", [1.0, np.nan, 1, 1, 1, 1]),
                                          ("kp", -np.ones(6)), ("q_des", np.full(6, np.inf))],
                         ids=["kp-short", "kd-nan", "kp-negative", "q_des-inf"])
def test_posture_spec_rejects_bad_fields(field, value):
    fields = {"q_des": np.zeros(6), "kp": np.ones(6), "kd": np.ones(6), field: value}
    with pytest.raises(ValueError, match=field):
        PostureSpec(**fields)


def test_default_posture_gives_extra_joints_the_sixth_gains():
    posture = default_posture(np.zeros(8))
    np.testing.assert_allclose(posture.kp, [100, 100, 100, 50, 50, 1, 1, 1])
    np.testing.assert_allclose(posture.kd, [3, 5, 5, 0.2, 0.2, 0.1, 0.1, 0.1])


@pytest.mark.parametrize("field, value", [("gain", np.inf), ("gain", np.nan),
                                          ("kp", [1.0, np.nan, 1.0]), ("kd", [np.inf, 1.0, 1.0])],
                         ids=["gain-inf", "gain-nan", "kp-nan", "kd-inf"])
def test_task_spec_rejects_non_finite_gains(field, value):
    with pytest.raises(ValueError, match=field):
        TaskSpec(priority=1, selector=POSITION, **{field: value})


@pytest.mark.parametrize("priority", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_task_spec_rejects_non_finite_priority(priority):
    # nan < 1 is false, so a NaN priority used to pass and then sort the
    # levels in no defined order
    with pytest.raises(ValueError, match="priority"):
        TaskSpec(priority=priority, selector=POSITION)


@pytest.mark.parametrize("call", ["ik_rollout", "osc_torque"])
def test_empty_hierarchy_is_rejected(desk_model, call):
    state = RigidBodyState(desk_model, np.zeros(6))
    pose = forward_kinematics(desk_model, state.q)
    with pytest.raises(ValueError, match="at least one level"):
        if call == "osc_torque":
            osc_torque(state, (), pose.rotation_matrix, pose.translation, 1e-2)
        else:
            ik_step(state, (), pose, 1e-2)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("rollout", [ik_rollout, osc_rollout], ids=lambda f: f.__name__)
def test_rollouts_reject_a_bad_dt(desk_model, rollout, dt):
    state = RigidBodyState(desk_model, np.zeros(6))
    targets = repeat_pose(forward_kinematics(desk_model, state.q), 3)
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        rollout(state, *targets, dt, 1e-2, default_task_hierarchy())


@pytest.mark.parametrize("call", ["ik_rollout", "osc_torque"])
def test_one_pose_error_per_call(desk_model, rng, monkeypatch, call):
    calls = []
    pose_error_raw = nominal.pose_error_raw

    def counting(*args):
        calls.append(args)
        return pose_error_raw(*args)

    monkeypatch.setattr(nominal, "pose_error_raw", counting)
    q = random_config(desk_model, rng)
    target = forward_kinematics(desk_model, q + 0.05)
    tasks = default_task_hierarchy()
    if call == "osc_torque":
        osc_torque(RigidBodyState(desk_model, q, np.zeros(6)), tasks, target.rotation_matrix,
                   target.translation, 1e-2)
    else:
        ik_step(ChainState(desk_model, q), tasks, target, 1e-2)
    assert len(calls) == 1


def test_osc_equilibrium_pure_compensation(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = np.zeros(6)
    pose = forward_kinematics(desk_model, q)
    tasks = default_task_hierarchy()
    u = osc_torque(RigidBodyState(desk_model, q, qd), tasks, pose.rotation_matrix, pose.translation,
                   1e-2, posture=default_posture(q))
    np.testing.assert_allclose(u, bias_forces(desk_model, q, np.zeros(6)), atol=1e-8)


def test_osc_single_task_achieves_pd_acceleration(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = 0.3 * rng.standard_normal(6)
    target = forward_kinematics(desk_model, q + 0.05 * rng.standard_normal(6))
    task = TaskSpec(priority=1, selector=FULL_POSE, gain=1.0,
                    kp=np.full(6, 50.0), kd=np.full(6, 8.0))
    u = osc_torque(RigidBodyState(desk_model, q, qd), (task,), target.rotation_matrix,
                   target.translation, 1e-9)
    jac = geometric_jacobian(desk_model, q)
    current = forward_kinematics(desk_model, q)
    err = pose_error_raw(target.rotation_matrix, target.translation,
                         current.rotation_matrix, current.translation)
    acc_des = task.kd * (-jac @ qd) + task.kp * err
    closed_loop = jac @ forward_dynamics(desk_model, q, qd, u) + jacobian_dot(desk_model, q, qd) @ qd
    assert np.linalg.norm(closed_loop - acc_des) <= 1e-6


def test_osc_secondary_does_not_disturb_primary(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = 0.2 * rng.standard_normal(6)
    jac_pos = geometric_jacobian(desk_model, q)[:3]
    minv = np.linalg.inv(mass_matrix(desk_model, q))
    lam = compact_svd_pinv(jac_pos @ minv @ jac_pos.T, 1e-9)
    jbar = minv @ jac_pos.T @ lam
    proj = np.eye(6) - jbar @ jac_pos
    tau_arbitrary = 5.0 * rng.standard_normal(6)
    delta_acc = jac_pos @ minv @ (proj.T @ tau_arbitrary)
    assert np.linalg.norm(delta_acc) <= 1e-6


def test_paper_gains_load_and_produce_finite_torque(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = 0.1 * rng.standard_normal(6)
    tasks = default_task_hierarchy()
    posture = default_posture(q)
    target = forward_kinematics(desk_model, q + 0.1 * rng.standard_normal(6))
    u = osc_torque(RigidBodyState(desk_model, q, qd), tasks, target.rotation_matrix,
                   target.translation, 1e-2, posture=posture)
    assert np.all(np.isfinite(u))
    np.testing.assert_allclose(posture.kp, [100, 100, 100, 50, 50, 1])
    np.testing.assert_allclose(posture.kd, [3, 5, 5, 0.2, 0.2, 0.1])


def test_osc_rollout_fixed_point(desk_model, rng):
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q)
    tasks = default_task_hierarchy()
    roll = osc_rollout(RigidBodyState(desk_model, q), *repeat_pose(pose, 5), 1e-3, 1e-2, tasks,
                       posture=default_posture(q))
    bias = bias_forces(desk_model, q, np.zeros(6))
    for k in range(4):
        np.testing.assert_allclose(roll.u_hat[k], bias, atol=1e-4)
    np.testing.assert_allclose(roll.q_hat[-1], q, atol=1e-6)


def test_osc_reads_jacobian_and_jdot_qd_from_the_world_pass(desk_model, rng, monkeypatch):
    # J is the one read-only array the chain state's constructor filled, the
    # same on every read, and J-dot qd comes out of RigidBodyState's spatial
    # pass: the full J-dot is never reached
    def unreachable(*args, **kwargs):
        raise AssertionError("the full J-dot was formed")

    monkeypatch.setattr(dynamics.RigidBodyState, "jacobian_dot", unreachable)
    q = random_config(desk_model, rng)
    qd = rng.standard_normal(6)
    st = RigidBodyState(desk_model, q, qd)
    jac = st.jacobian()
    assert st.jacobian() is jac and not jac.flags.writeable
    target = forward_kinematics(desk_model, q + 0.1 * rng.standard_normal(6))
    tasks = default_task_hierarchy()
    posture = default_posture(q)
    u = osc_torque(st, tasks, target.rotation_matrix, target.translation, 1e-2, posture=posture)
    roll = osc_rollout(RigidBodyState(desk_model, q, qd), *repeat_pose(target, 3), 1e-3, 1e-2,
                       tasks, posture=posture)
    assert np.isfinite(u).all() and np.isfinite(roll.x_hat).all()
    assert st.jacobian() is jac


def test_osc_rollout_clamps_torque(desk_model):
    q = np.zeros(6)
    far_target = Pose(np.array([1.0, 0, 0, 0]), np.array([5.0, 5.0, 5.0]))
    task = TaskSpec(priority=1, selector=POSITION, gain=1.0,
                    kp=np.full(3, 1e6), kd=np.full(3, 10.0))
    roll = osc_rollout(RigidBodyState(desk_model, q), *repeat_pose(far_target, 3), 1e-3, 1e-2,
                       (task,))
    u_max = desk_model.limits.u_max
    assert np.all(np.abs(roll.u_hat) <= u_max + 1e-12)
    assert np.any(np.abs(roll.u_hat) == u_max[None, :].repeat(2, 0))


def test_osc_rollout_timing(desk_model, rng):
    import time

    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q)
    start = RigidBodyState(desk_model, q)
    tasks = default_task_hierarchy()
    posture = default_posture(q)
    targets = repeat_pose(pose, 11)
    osc_rollout(start, *targets, 1e-3, 1e-2, tasks, posture=posture)  # warmup
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        osc_rollout(start, *targets, 1e-3, 1e-2, tasks, posture=posture)
    elapsed = (time.perf_counter() - t0) / reps
    print(f"\nosc_rollout horizon-10 wall time: {elapsed * 1e3:.2f} ms (1 ms real-time share)")
    assert elapsed < 0.05  # sanity ceiling; the 1 ms share is reported above


@pytest.mark.parametrize("call", ["osc_torque", "osc_rollout"])
def test_osc_rejects_a_plain_chain_state(desk_model, rng, call):
    # the OSC reads qd, M and b, which a ChainState does not carry: it used
    # to fail on a missing attribute
    q = random_config(desk_model, rng)
    pose = forward_kinematics(desk_model, q)
    with pytest.raises(ValueError, match="RigidBodyState"):
        if call == "osc_torque":
            osc_torque(ChainState(desk_model, q), default_task_hierarchy(), pose.rotation_matrix,
                       pose.translation, 1e-2)
        else:
            osc_rollout(ChainState(desk_model, q), *repeat_pose(pose, 3), 1e-3, 1e-2,
                        default_task_hierarchy())
