import dataclasses
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from armmpc import dynamics
from armmpc.checks import (
    _central_difference,
    motion_transforms,
    rnea_link_frame,
    run_world_pass_check,
)
from armmpc.dynamics import (
    RigidBodyState,
    _icrf,
    _id_derivatives,
    _spatial,
    bias_forces,
    dynamics_derivatives,
    forward_dynamics,
    mass_matrix,
)
from armmpc.kinematics import ChainState, _crm, jacobian_dot
from armmpc.mpc_dynamic import linearize_stage
from armmpc.robot_model import PayloadSpec, RigidTransform, RobotModel, attach_payload

from conftest import (id_derivatives_fd, inverse_dynamics, make_rpr, point_jacobian_pass,
                      random_config, sequential_jacobian_dot)


def chain_model(name, desk_model):
    """The rs007n arm, the three-joint chain with a tilted middle axis, or the arm
    with a 12 kg payload composed into its last link."""
    if name == "rpr":
        return make_rpr()
    if name == "payload":
        return attach_payload(desk_model, PayloadSpec(mass=12.0, com_offset=np.array([0.0, 0.0, 0.1])))
    return desk_model


CHAINS = ["desk", "rpr", "payload"]


def test_icrf_identity(rng):
    # the cross operators build a whole (10, 6) stack at once
    m = rng.standard_normal((10, 6))
    f = rng.standard_normal((10, 6))
    crf = -np.swapaxes(_crm(m), -1, -2)  # force cross operator of m
    np.testing.assert_allclose((_icrf(f) @ m[..., None])[..., 0], (crf @ f[..., None])[..., 0],
                               atol=1e-12)
    for k in range(10):
        np.testing.assert_array_equal(_icrf(f)[k], _icrf(f[k]))
        np.testing.assert_array_equal(_crm(m)[k], _crm(m[k]))


def test_dynamics_derivatives_batch_matches_single(rng):
    # the chain with a tilted middle axis; a rest state among moving ones
    model = make_rpr()
    states, qdds = [], []
    for qd_scale in (0.0, 1.0, 0.5, 2.0):
        q = random_config(model, rng)
        qd = qd_scale * rng.standard_normal(model.n)
        states.append(RigidBodyState(model, q, qd))
        qdds.append(rng.standard_normal(model.n))
    qdds = np.array(qdds)
    batch = dynamics_derivatives(states, qdds)
    assert batch.dtau_dq.shape == (4, 3, 3)
    # the same pass carries the joint torques in its last column
    tau = _id_derivatives(states[0].chain, *_spatial(states), qdds)[:, :, -1]
    for k, st in enumerate(states):
        fd = dict(zip(("dtau_dq", "dtau_dqd"), id_derivatives_fd(model, st.q, st.qd, qdds[k])))
        one = dynamics_derivatives(st, qdds[k])
        np.testing.assert_allclose(tau[k], st.mass @ qdds[k] + st.bias, rtol=0, atol=1e-10)
        for name in ("dtau_dq", "dtau_dqd"):
            got = getattr(batch, name)[k]
            ref = fd[name]
            assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref), (k, name)
        for name in ("dtau_dq", "dtau_dqd", "dqdd_dq", "dqdd_dqd", "dqdd_du"):
            got = getattr(batch, name)[k]
            ref = getattr(one, name)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (k, name)


# the world-frame passes of RigidBodyState and of inverse dynamics against
# their independent oracles:
# the arm with its payload, a chain with a tilted middle axis, and seven joints
PASS_CHAINS = ["payload", "rpr", "seven"]


def pass_model(name, request):
    if name == "seven":
        return request.getfixturevalue("seven_joint_model")
    if name == "desk":
        return request.getfixturevalue("desk_model")
    return chain_model(name, request.getfixturevalue("desk_model"))


@pytest.mark.parametrize("name", ["desk", "rpr", "payload", "seven"])
@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("qd_scale", [0.0, 2.0])
def test_world_derivative_pass_matches_link_frame_oracle(request, rng, name, batch, qd_scale):
    # [d tau/dq | d tau/dqd | tau] of the world-frame closed forms against the
    # link-frame Newton-Euler passes through the motion transforms, at rest
    # and moving, for one state and for a horizon of them
    model = pass_model(name, request)
    states = [RigidBodyState(model, random_config(model, rng),
                             qd_scale * rng.standard_normal(model.n)) for _ in range(batch)]
    qdd = rng.standard_normal((batch, model.n))
    local = np.stack([st.local for st in states])
    got = _id_derivatives(states[0].chain, *_spatial(states), qdd)
    ref = rnea_link_frame(model, local, np.array([st.qd for st in states]), qdd)
    assert got.shape == ref.shape == (batch, model.n, 2 * model.n + 1)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # the oracle's motion transforms, built in one call, are each state's own
    xs = np.stack([motion_transforms(st.local[None])[0] for st in states])
    assert np.array_equal(motion_transforms(local), xs)


# the quantities of RigidBodyState's spatial pass that point_jacobian_pass also forms
POINT_PASS = ("mass", "bias", "gravity", "jdot_qd", "jacobian_dot")


def relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["desk", "rpr", "payload", "seven"])
@pytest.mark.parametrize("qd_scale", [0.0, 2.0])
def test_spatial_pass_matches_point_jacobian_oracle(request, rng, name, qd_scale):
    # the spatial pass about the end effector against the Jacobians of 2n
    # world points, at rest and moving; J is the same product of the same
    # numbers, so it is equal to the bit
    model = pass_model(name, request)
    for _ in range(5):
        q = random_config(model, rng)
        qd = qd_scale * rng.standard_normal(model.n)
        st = RigidBodyState(model, q, qd)
        ref = point_jacobian_pass(model, q, qd)
        assert np.array_equal(st.jacobian(), ref["jacobian"])
        for key in POINT_PASS:
            got = getattr(st, key)
            got = got() if key == "jacobian_dot" else got
            if qd_scale == 0.0 and key in ("jdot_qd", "jacobian_dot"):
                assert not got.any() and not ref[key].any(), key
            else:
                assert relative_error(got, ref[key]) <= 1e-12, key


def test_spatial_pass_does_not_depend_on_where_the_arm_stands(desk_model, rng):
    # rs007n with its first joint 10 m from the world origin: each state's
    # pass is taken about its own end effector, so M, M^-1, b, g and J-dot qd
    # are the untranslated arm's to round-off. M is held entry by entry in
    # its own diagonal scale, |dM_ij| / sqrt(M_ii M_jj), where the wrist's
    # small entries show: about the world origin they come out of moments of
    # 10 m arms that cancel, about 4e-11 off, and M^-1 as far
    first = desk_model.joints[0]
    moved = RigidTransform(first.parent_transform.rotation,
                           first.parent_transform.translation + np.array([6.0, 0.0, 8.0]))
    far = RobotModel(joints=(dataclasses.replace(first, parent_transform=moved),)
                     + desk_model.joints[1:], links=desk_model.links,
                     gravity=desk_model.gravity, ee_transform=desk_model.ee_transform,
                     name="rs007n_far")
    for _ in range(5):
        q = random_config(desk_model, rng)
        qd = 2.0 * rng.standard_normal(desk_model.n)
        near_st, far_st = RigidBodyState(desk_model, q, qd), RigidBodyState(far, q, qd)
        assert np.linalg.norm(far_st.ee_pos - near_st.ee_pos - [6.0, 0.0, 8.0]) <= 1e-12
        scale = 1.0 / np.sqrt(np.diag(near_st.mass))
        assert np.abs(scale[:, None] * (far_st.mass - near_st.mass) * scale).max() <= 1e-12
        for key in ("minv", "bias", "gravity", "jdot_qd"):
            assert relative_error(getattr(far_st, key), getattr(near_st, key)) <= 1e-12, key


def test_jacobian_is_read_only(desk_model, rng):
    st = RigidBodyState(desk_model, random_config(desk_model, rng), rng.standard_normal(6))
    with pytest.raises(ValueError, match="read-only"):
        st.jacobian()[0, 0] = 1.0


@pytest.mark.parametrize("name", PASS_CHAINS)
def test_world_pass_jdot_matches_sequential_oracle(request, rng, name):
    # J-dot qd from the last link's acceleration at the end effector, and the
    # full J-dot from S-dot, against the joint-by-joint column rates of
    # sequential_jacobian_dot, a separate computation
    model = pass_model(name, request)
    for _ in range(5):
        q = random_config(model, rng)
        qd = 2.0 * rng.standard_normal(model.n)
        ref = sequential_jacobian_dot(model, q, qd)
        got = RigidBodyState(model, q, qd).jdot_qd
        assert np.linalg.norm(got - ref @ qd) <= 1e-12 * np.linalg.norm(ref @ qd)
        assert np.linalg.norm(jacobian_dot(model, q, qd) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", PASS_CHAINS)
def test_world_pass_jacobian_is_the_chain_jacobian(request, rng, name):
    model = pass_model(name, request)
    q = random_config(model, rng)
    st = RigidBodyState(model, q, rng.standard_normal(model.n))
    assert np.array_equal(st.jacobian(), ChainState(model, q).jacobian())


@pytest.mark.parametrize("name", PASS_CHAINS)
def test_world_pass_bias_matches_newton_euler(request, rng, name):
    # b against the link-frame Newton-Euler oracle, and against inverse
    # dynamics at qdd = 0, the world-frame derivative pass
    model = pass_model(name, request)
    for _ in range(5):
        q = random_config(model, rng)
        qd = 2.0 * rng.standard_normal(model.n)
        st = RigidBodyState(model, q, qd)
        ref = rnea_link_frame(model, st.local[None], qd[None], np.zeros((1, model.n)))[0, :, -1]
        for other in (ref, inverse_dynamics(model, q, qd, np.zeros(model.n))):
            assert np.linalg.norm(st.bias - other) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", PASS_CHAINS)
def test_world_pass_mass_needs_no_velocity(request, rng, name):
    # M, its factor and J come from the velocity-free half of the pass
    model = pass_model(name, request)
    q = random_config(model, rng)
    st = RigidBodyState(model, q)
    moving = RigidBodyState(model, q, rng.standard_normal(model.n))
    assert np.array_equal(mass_matrix(model, q), moving.mass)
    np.testing.assert_allclose(st.minv @ st.mass, np.eye(model.n), atol=1e-10)
    assert np.array_equal(st.jacobian(), moving.jacobian())


def test_state_without_velocity_is_at_rest(desk_model, rng):
    # qd defaults to zeros, so every velocity quantity is defined: b is g
    q = random_config(desk_model, rng)
    st = RigidBodyState(desk_model, q)
    assert np.array_equal(st.qd, np.zeros(desk_model.n))
    assert np.array_equal(st.bias, bias_forces(desk_model, q, np.zeros(desk_model.n)))
    assert np.array_equal(st.bias, st.gravity)
    assert np.array_equal(st.jdot_qd, np.zeros(6))
    assert np.array_equal(st.forward_dynamics(st.gravity), np.zeros(desk_model.n))


def test_constructor_factors_and_inverts_once_and_reads_solve_nothing(desk_model, rng,
                                                                     monkeypatch):
    # the constructor fills every quantity, M^-1 from one solve on M's
    # factor; the reads solve nothing
    calls = {"dpotrf": 0, "dpotrs": 0}

    def counting(name, lapack):
        def call(*args, **kwargs):
            calls[name] += 1
            return lapack(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name, getattr(dynamics, name)))
    st = RigidBodyState(desk_model, random_config(desk_model, rng), rng.standard_normal(6))
    assert calls == {"dpotrf": 1, "dpotrs": 1}
    for _ in range(2):
        (st.mass, st.factor, st.bias, st.gravity, st.jdot_qd, st.jacobian(), st.jacobian_dot(),
         st.minv)
    assert calls == {"dpotrf": 1, "dpotrs": 1}


def test_construction_stays_within_its_call_budget(desk_model, rng):
    # the function calls (sys.setprofile's call and c_call events) of one
    # RigidBodyState at a moving state, the chain pass included; numpy
    # operators such as @ and + make no such event. Before the spatial pass
    # about the end effector replaced the Jacobians of 2n world points, a
    # construction made 20 Python and 46 C calls; before the model kept its
    # chain constants and the chain state filled its J, 17 and 31; before the
    # joint pass summed padded constant stacks, 12 and 26
    q, qd = random_config(desk_model, rng), rng.standard_normal(desk_model.n)
    RigidBodyState(desk_model, q, qd)
    counts = Counter()
    sys.setprofile(lambda frame, event, arg: counts.update((event,)))
    try:
        RigidBodyState(desk_model, q, qd)
    finally:
        sys.setprofile(None)
    assert counts["call"] <= 12 and counts["c_call"] <= 25, counts


def test_nan_configuration_fails_at_construction(desk_model):
    q = np.zeros(desk_model.n)
    q[2] = np.nan
    with pytest.raises(ValueError, match="mass matrix is not finite"):
        RigidBodyState(desk_model, q)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dynamics_entry_points_refuse_input_that_is_not_finite(desk_model, rng, value):
    # each input is named, and refused before numpy could warn about it
    n = desk_model.n
    q, zero = random_config(desk_model, rng), np.zeros(n)
    bad = zero.copy()
    bad[1] = value
    st = RigidBodyState(desk_model, q, rng.standard_normal(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, name in ((lambda: inverse_dynamics(desk_model, bad, zero, zero), "q"),
                           (lambda: inverse_dynamics(desk_model, q, bad, zero), "qd"),
                           (lambda: inverse_dynamics(desk_model, q, zero, bad), "qdd"),
                           (lambda: forward_dynamics(desk_model, q, zero, bad), "u"),
                           (lambda: dynamics_derivatives(st, bad), "qdd"),
                           (lambda: dynamics_derivatives([st, st], np.stack([zero, bad])), "qdd"),
                           (lambda: linearize_stage(st, bad, 0.01), "u_hat"),
                           (lambda: linearize_stage([st, st], np.stack([zero, bad]), 0.01,
                                                    qdd=np.zeros((2, n))), "u_hat")):
            with pytest.raises(ValueError, match=f"^{name} is not finite"):
                call()


def test_finite_check_passes_a_finite_input_whose_sum_overflows(desk_model):
    # the call-free sum test only sends x to the full scan
    x = np.full(desk_model.n, 1e308)
    assert dynamics._finite(x, "x") is x


@pytest.mark.parametrize("name", PASS_CHAINS)
def test_world_pass_check_passes(request, name):
    # the check suite's oracles, on chains beyond the one the CLI loads
    for res in run_world_pass_check(pass_model(name, request), n_states=20, seed=3):
        assert res.passed, res.line()


def test_mass_matrix_pendulum(pendulum):
    m = mass_matrix(pendulum, np.array([0.7]))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-9)  # m * l^2


@pytest.mark.parametrize("name", CHAINS)
def test_mass_matrix_id_column_oracle(desk_model, rng, name):
    # the composite-inertia mass matrix against columns of inverse dynamics
    model = chain_model(name, desk_model)
    q = random_config(model, rng)
    m = mass_matrix(model, q)
    zero = np.zeros(model.n)
    base = inverse_dynamics(model, q, zero, zero)
    for i in range(model.n):
        e = np.zeros(model.n)
        e[i] = 1.0
        col = inverse_dynamics(model, q, zero, e) - base
        np.testing.assert_allclose(m[:, i], col, atol=1e-10)


def test_mass_matrix_spd(desk_model, rng):
    for _ in range(5):
        q = random_config(desk_model, rng)
        m = mass_matrix(desk_model, q)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m)[0] > 0


def test_bias_zero_at_rest_no_gravity(planar_2dof):
    b = bias_forces(planar_2dof, np.array([0.3, -0.2]), np.zeros(2))
    np.testing.assert_allclose(b, 0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["desk", "rpr"])
def test_gravity_equals_bias_at_rest(desk_model, rng, name):
    # the gravity-only passes at (q, qd) give b(q, 0) to the last bit
    model = desk_model if name == "desk" else make_rpr()
    q = random_config(model, rng)
    st = RigidBodyState(model, q, rng.standard_normal(model.n))
    assert np.array_equal(st.gravity, bias_forces(model, q, np.zeros(model.n)))


def test_bias_gravity_pendulum(gravity_pendulum):
    # horizontal link, gravity -z: holding torque m*g*l about +y
    b = bias_forces(gravity_pendulum, np.zeros(1), np.zeros(1))
    assert b[0] == pytest.approx(9.81, abs=1e-9)


@pytest.mark.parametrize("name", CHAINS)
def test_bias_equals_id_with_zero_accel(desk_model, rng, name):
    # the constructor's bias forces against the derivative pass's inverse dynamics
    model = chain_model(name, desk_model)
    q = random_config(model, rng)
    qd = rng.standard_normal(model.n)
    np.testing.assert_allclose(
        bias_forces(model, q, qd),
        inverse_dynamics(model, q, qd, np.zeros(model.n)),
        atol=1e-12,
    )


def test_id_fd_roundtrip(desk_model, rng):
    for _ in range(5):
        q = random_config(desk_model, rng)
        qd = rng.standard_normal(desk_model.n)
        u = 10.0 * rng.standard_normal(desk_model.n)
        qdd = forward_dynamics(desk_model, q, qd, u)
        np.testing.assert_allclose(inverse_dynamics(desk_model, q, qd, qdd), u, atol=1e-9)


def test_id_static_pendulum(gravity_pendulum):
    theta = 0.6
    u = inverse_dynamics(gravity_pendulum, np.array([theta]), np.zeros(1), np.zeros(1))
    assert u[0] == pytest.approx(9.81 * math.cos(theta), abs=1e-9)


def test_id_all_zero_no_gravity(planar_2dof):
    u = inverse_dynamics(planar_2dof, np.zeros(2), np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(u, 0.0, atol=1e-15)


@pytest.mark.parametrize("name", CHAINS)
def test_id_decomposes_into_mass_and_bias(desk_model, rng, name):
    model = chain_model(name, desk_model)
    q = random_config(model, rng)
    qd = rng.standard_normal(model.n)
    qdd = rng.standard_normal(model.n)
    lhs = inverse_dynamics(model, q, qd, qdd) - inverse_dynamics(model, q, qd, np.zeros(model.n))
    np.testing.assert_allclose(lhs, mass_matrix(model, q) @ qdd, atol=1e-10)


def test_fd_equilibrium(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = rng.standard_normal(desk_model.n)
    np.testing.assert_allclose(
        forward_dynamics(desk_model, q, qd, bias_forces(desk_model, q, qd)), 0.0, atol=1e-10
    )


def test_fd_pendulum_free_fall(gravity_pendulum):
    # horizontal release: qdd = g/l * cos(theta) about +y at theta=0
    qdd = forward_dynamics(gravity_pendulum, np.zeros(1), np.zeros(1), np.zeros(1))
    assert qdd[0] == pytest.approx(-9.81, rel=1e-9)


def test_fd_residual(desk_model, rng):
    for _ in range(5):
        q = random_config(desk_model, rng)
        qd = rng.standard_normal(desk_model.n)
        u = 20.0 * rng.standard_normal(desk_model.n)
        qdd = forward_dynamics(desk_model, q, qd, u)
        res = mass_matrix(desk_model, q) @ qdd + bias_forces(desk_model, q, qd) - u
        assert np.linalg.norm(res) <= 1e-10


def test_derivatives_match_fd_of_forward_dynamics(desk_model, rng):
    for _ in range(10):
        q = random_config(desk_model, rng)
        qd = rng.standard_normal(desk_model.n)
        u = 15.0 * rng.standard_normal(desk_model.n)
        qdd = forward_dynamics(desk_model, q, qd, u)
        der = dynamics_derivatives(RigidBodyState(desk_model, q, qd), qdd)
        fd_q = _central_difference(lambda x: forward_dynamics(desk_model, x, qd, u), q, 1e-6)
        fd_qd = _central_difference(lambda x: forward_dynamics(desk_model, q, x, u), qd, 1e-6)
        fd_u = _central_difference(lambda x: forward_dynamics(desk_model, q, qd, x), u, 1e-6)
        for got, ref in ((der.dqdd_dq, fd_q), (der.dqdd_dqd, fd_qd), (der.dqdd_du, fd_u)):
            rel = np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(ref))
            assert rel <= 1e-5


def test_derivatives_fd_switch_agrees(desk_model, rng):
    q = random_config(desk_model, rng)
    qd = rng.standard_normal(desk_model.n)
    u = rng.standard_normal(desk_model.n)
    qdd = forward_dynamics(desk_model, q, qd, u)
    ana = dynamics_derivatives(RigidBodyState(desk_model, q, qd), qdd)
    num_dq, num_dqd = id_derivatives_fd(desk_model, q, qd, qdd)
    np.testing.assert_allclose(ana.dtau_dq, num_dq, atol=1e-4)
    np.testing.assert_allclose(ana.dtau_dqd, num_dqd, atol=1e-4)


def test_pendulum_symbolic_gravity_derivative(gravity_pendulum):
    theta = 0.8
    der = dynamics_derivatives(RigidBodyState(gravity_pendulum, np.array([theta])), np.zeros(1))
    assert der.dtau_dq[0, 0] == pytest.approx(-9.81 * math.sin(theta), abs=1e-9)


def test_dqdd_du_times_mass_is_identity(desk_model, rng):
    q = random_config(desk_model, rng)
    der = dynamics_derivatives(RigidBodyState(desk_model, q), np.zeros(6))
    np.testing.assert_allclose(der.dqdd_du @ mass_matrix(desk_model, q), np.eye(6), atol=1e-10)


def test_fd_id_derivative_identity(desk_model, rng):
    # dqdd_dx == -Minv @ dtau_dx for x in {q, qd}
    for _ in range(5):
        q = random_config(desk_model, rng)
        qd = rng.standard_normal(desk_model.n)
        u = rng.standard_normal(desk_model.n)
        qdd = forward_dynamics(desk_model, q, qd, u)
        der = dynamics_derivatives(RigidBodyState(desk_model, q, qd), qdd)
        for dfd, did in ((der.dqdd_dq, der.dtau_dq), (der.dqdd_dqd, der.dtau_dqd)):
            res = np.linalg.norm(dfd + der.dqdd_du @ did)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(did))


def test_energy_conservation_no_gravity(planar_2dof):
    q = np.array([0.2, -0.4])
    qd = np.array([1.0, -0.5])
    zero = np.zeros(2)

    def kinetic(q, qd):
        return 0.5 * qd @ mass_matrix(planar_2dof, q) @ qd

    e0 = kinetic(q, qd)
    drift = []
    for dt in (1e-3, 1e-4):
        st = RigidBodyState(planar_2dof, q, qd)
        for _ in range(int(round(0.5 / dt))):
            st = st.semi_implicit_step(zero, dt)[0]
        drift.append(abs(kinetic(st.q, st.qd) - e0) / e0)
    # first-order integrator: drift shrinks with dt, and stays under the frozen ceiling
    assert drift[1] < drift[0]
    assert drift[1] < 1e-3


def test_fd_dimension_mismatch(desk_model):
    with pytest.raises(ValueError):
        forward_dynamics(desk_model, np.zeros(6), np.zeros(6), np.zeros(5))
