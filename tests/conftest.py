import math
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import lapack

from armmpc import dynamics, kinematics, load_bundled_model, nominal, qp, simulator
from armmpc.checks import _central_difference
from armmpc.robot_model import (
    JointSpec,
    LinkInertia,
    RigidTransform,
    RobotModel,
)

POINT_INERTIA = np.eye(3) * 1e-12


def make_pendulum(mass=1.0, length=1.0, gravity=(0.0, 0.0, -9.81)):
    """1-DOF revolute joint about z at the origin, point mass at x=length.

    With gravity along -z the link swings in the horizontal plane; tests that
    need gravity torque rotate the axis instead.
    """
    joint = JointSpec(
        axis=np.array([0.0, 0.0, 1.0]),
        parent_transform=RigidTransform.identity(),
        q_limits=(-3.14, 3.14),
        v_limit=10.0,
        u_limit=50.0,
    )
    link = LinkInertia(mass=mass, com=np.array([length, 0.0, 0.0]), inertia_tensor=POINT_INERTIA)
    return RobotModel(
        joints=(joint,),
        links=(link,),
        gravity=np.asarray(gravity, dtype=float),
        ee_transform=RigidTransform.from_xyz_rpy(xyz=(length, 0.0, 0.0)),
        name="pendulum",
    )


def make_gravity_pendulum(mass=1.0, length=1.0):
    """1-DOF revolute about -y: link along +x at q=0, positive q lifts the mass."""
    joint = JointSpec(
        axis=np.array([0.0, -1.0, 0.0]),
        parent_transform=RigidTransform.identity(),
        q_limits=(-6.3, 6.3),
        v_limit=20.0,
        u_limit=50.0,
    )
    link = LinkInertia(mass=mass, com=np.array([length, 0.0, 0.0]), inertia_tensor=POINT_INERTIA)
    return RobotModel(
        joints=(joint,),
        links=(link,),
        ee_transform=RigidTransform.from_xyz_rpy(xyz=(length, 0.0, 0.0)),
        name="gravity_pendulum",
    )


def make_planar_2dof(l1=0.5, l2=0.4, m1=2.0, m2=1.0):
    """Two revolute z joints in the x-y plane (no gravity torque about z)."""
    j1 = JointSpec(
        axis=np.array([0.0, 0.0, 1.0]),
        parent_transform=RigidTransform.identity(),
        q_limits=(-3.1, 3.1),
        v_limit=8.0,
        u_limit=80.0,
    )
    j2 = JointSpec(
        axis=np.array([0.0, 0.0, 1.0]),
        parent_transform=RigidTransform.from_xyz_rpy(xyz=(l1, 0.0, 0.0)),
        q_limits=(-3.1, 3.1),
        v_limit=8.0,
        u_limit=40.0,
    )
    links = (
        LinkInertia(mass=m1, com=np.array([l1 / 2, 0.0, 0.0]), inertia_tensor=np.eye(3) * m1 * l1**2 / 12),
        LinkInertia(mass=m2, com=np.array([l2 / 2, 0.0, 0.0]), inertia_tensor=np.eye(3) * m2 * l2**2 / 12),
    )
    return RobotModel(
        joints=(j1, j2),
        links=links,
        gravity=np.zeros(3),
        ee_transform=RigidTransform.from_xyz_rpy(xyz=(l2, 0.0, 0.0)),
        name="planar_2dof",
    )


def make_rpr():
    """Revolute about z, revolute about the pitched axis [0.6, 0, 0.8] (z
    tilted toward x), revolute about y.

    The middle joint rides on a rotating link and its axis is neither
    parallel nor orthogonal to its neighbours', so the axis turns with a
    nonzero angular velocity and the chain is not planar.
    """
    j1 = JointSpec(
        axis=np.array([0.0, 0.0, 1.0]),
        parent_transform=RigidTransform.identity(),
        q_limits=(-3.1, 3.1),
        v_limit=5.0,
        u_limit=50.0,
    )
    j2 = JointSpec(
        axis=np.array([0.6, 0.0, 0.8]),
        parent_transform=RigidTransform.from_xyz_rpy(xyz=(0.3, 0.1, 0.2), rpy=(0.2, 0.0, 0.4)),
        q_limits=(-3.1, 3.1),
        v_limit=5.0,
        u_limit=40.0,
    )
    j3 = JointSpec(
        axis=np.array([0.0, 1.0, 0.0]),
        parent_transform=RigidTransform.from_xyz_rpy(xyz=(0.2, 0.0, 0.1)),
        q_limits=(-3.1, 3.1),
        v_limit=5.0,
        u_limit=30.0,
    )
    links = tuple(
        LinkInertia(mass=m, com=np.array([0.1, 0.0, 0.0]), inertia_tensor=np.eye(3) * 1e-2)
        for m in (2.0, 1.5, 1.0)
    )
    return RobotModel(
        joints=(j1, j2, j3),
        links=links,
        ee_transform=RigidTransform.from_xyz_rpy(xyz=(0.25, 0.0, 0.05)),
        name="rpr",
    )


def rotvec_from_matrix(rot):
    """Logarithm map: the rotation vector of a rotation matrix, norm <= pi,
    as an array; the pose error's kernel kinematics._rotvec."""
    return np.array(kinematics._rotvec(np.asarray(rot, dtype=float)))


def rotvec_to_matrix(v):
    """Exponential map (Rodrigues): the rotation matrix of the rotation
    vector v, the oracle that rotvec_from_matrix inverts."""
    x, y, z = np.asarray(v, dtype=float)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        return np.eye(3) + k + 0.5 * (k @ k)
    k = k / angle
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def inverse_dynamics(model, q, qd, qdd):
    """Joint forces u = M(q) qdd + b(q, qd), a batch of one through the
    derivative pass at a RigidBodyState. Raises ValueError for a q, qd or qdd
    that is not finite."""
    st = dynamics.RigidBodyState(model, dynamics._finite(model.check_q(q), "q"), qd)
    qdd = dynamics._finite(model.check_q(qdd, "qdd"), "qdd")
    return dynamics._id_derivatives(st.chain, *dynamics._spatial((st,)), qdd[None])[0, :, -1]


def id_derivatives_fd(model, q, qd, qdd, h=1e-6):
    """Central finite differences of inverse dynamics, d tau/dq and d tau/dqd."""
    return (_central_difference(lambda x: inverse_dynamics(model, x, qd, qdd), q, h),
            _central_difference(lambda x: inverse_dynamics(model, q, x, qdd), qd, h))


def repeat_pose(pose, count):
    """count copies of one pose as a rollout's targets: (count, 3, 3) rotation
    matrices and (count, 3) positions."""
    return (np.repeat(pose.rotation_matrix[None], count, axis=0),
            np.repeat(pose.translation[None], count, axis=0))


def ik_step(state, tasks, target, rel_threshold):
    """One IK velocity command at a chain state: a one-pose ik_rollout's first qd."""
    return nominal.ik_rollout(state, *repeat_pose(target, 1), 1.0, rel_threshold, tasks).qd_hat[0]


def osc_torque_per_level(state, tasks, target, rel_threshold, posture=None, twist=None):
    """osc_torque with each level's reference force formed in its own turn of
    the recursion, from its own rows of J, the twist and J-dot qd (the form
    the one stacked force of nominal._osc_torque replaced)."""
    twist = np.zeros(6) if twist is None else np.asarray(twist, dtype=float)
    levels, pose_rows, _, kp, kd, jac_out, _ = nominal._levels(tasks, 1, state.model.n)
    jac_full = state.jacobian()
    err = kinematics.pose_error_raw(target.rotation_matrix, target.translation, state.ee_rot,
                                    state.ee_pos)[pose_rows]
    u = None
    for (rows, out), jac_proj, lam, _, proj in nominal._prioritize(
            levels, jac_full, rel_threshold, jac_out[0], state.minv,
            last_projector=posture is not None):
        vel = jac_full[rows] @ state.qd
        acc_des = kd[out] * (twist[rows] - vel) + kp[out] * err[out]
        tau = jac_proj.T @ (lam @ (acc_des - state.jdot_qd[rows]))
        u = tau if u is None else u + tau
    if posture is not None:
        u = u + proj.T @ (posture.kp * (posture.q_des - state.q) - posture.kd * state.qd)
    return u + state.bias


def sequential_frames(model, rot_local, trans_local):
    """The world frames as the running product of the local transforms, one
    joint at a time (the loop the prefix scan replaced)."""
    rot = np.eye(3)
    pos = np.zeros(3)
    axes, origins, rots = [], [], []
    for joint, rot_k, trans_k in zip(model.joints, rot_local, trans_local):
        pos = pos + rot @ trans_k
        rot = rot @ rot_k
        axes.append(rot @ joint.axis)
        origins.append(pos)
        rots.append(rot)
    ee = model.ee_transform
    return (np.array(axes), np.array(origins), np.array(rots),
            rot @ ee.rotation, pos + rot @ ee.translation)


def sequential_jacobian_dot(model, q, qd):
    """J-dot along qd, one joint at a time, from the frames of
    sequential_frames: the link angular velocities omega_j summed joint by
    joint, the axis rates z_j-dot = omega_(j-1) x z_j (each axis is fixed in
    the link before its joint), the velocities of the joint origins and the
    end effector, and from them each column's rate."""
    rot_local = [joint.parent_transform.rotation @ rotvec_to_matrix(joint.axis * qk)
                 for joint, qk in zip(model.joints, q)]
    trans_local = [joint.parent_transform.translation for joint in model.joints]
    axes, origins, _, _, ee_pos = sequential_frames(model, rot_local, trans_local)

    def velocity(point, joints):
        # the velocity of a point that the given joints move
        vel = np.zeros(3)
        for j in joints:
            vel += np.cross(axes[j], point - origins[j]) * qd[j]
        return vel

    ee_vel = velocity(ee_pos, range(model.n))
    omega = np.zeros(3)  # of the link before joint j
    jdot = np.zeros((6, model.n))
    for j in range(model.n):
        axis_dot = np.cross(omega, axes[j])
        origin_vel = velocity(origins[j], range(j))
        jdot[:3, j] = (np.cross(axis_dot, ee_pos - origins[j])
                       + np.cross(axes[j], ee_vel - origin_vel))
        jdot[3:, j] = axis_dot
        omega = omega + axes[j] * qd[j]
    return jdot


def point_jacobian_pass(model, q, qd):
    """M, b, g, J-dot qd, J and J-dot at (q, qd) from the Jacobians of a stack
    of 2n world points (the joint origins 1..n-1, the link COMs and the end
    effector), the oracle of RigidBodyState's spatial pass: M = sum_i m_i
    Jv_i'Jv_i + Jw_i'(R_i I_i R_i')Jw_i as one Gram product, and b, g and
    J-dot qd from the points' accelerations and column rates at qdd = 0
    (Featherstone, 2008, the Jacobian forms of M and C qd). Returned as a
    dict keyed by RigidBodyState's names."""
    st = kinematics.ChainState(model, q)
    c = st.chain
    n = c.n
    axis_w, origin_w, rot_w = st.axis_w, st.origin_w, st.rot_w
    link_mass = np.array([link.mass for link in model.links])
    # [point, joint]: joint j moves the point
    point_moves = np.vstack([c.moves[:-1], c.moves, np.ones((1, n))])
    # each point minus every joint origin, and its linear Jacobian columns,
    # (2n, n, 3) each; the COMs' [Jv | Jw], (n, n, 6), [link, joint]; and
    # K_i = R_i L_i with K_i K_i' the world inertia R_i I_i R_i'
    com_w = origin_w + (rot_w @ c.com[:, :, None])[:, :, 0]
    arm = np.concatenate([origin_w[1:], com_w, st.ee_pos[None]])[:, None, :] - origin_w
    cols = kinematics._cross(axis_w, arm) * point_moves[:, :, None]
    jac = np.concatenate([cols[n - 1:-1], c.moves[:, :, None] * axis_w], axis=2)
    k = rot_w @ c.root_inertia
    a = np.concatenate([jac[:, :, :3] * c.root_mass[:, None, None], jac[:, :, 3:] @ k], axis=2)
    a = a.transpose(1, 0, 2).reshape(n, 6 * n)
    mass = a @ a.T
    # the accelerations a_i, alpha_i that qd alone causes: b - g and g are one
    # contraction of the COMs' [Jv | Jw] with the wrenches (m_i a_i; I_i
    # alpha_i + omega_i x I_i omega_i) and (-m_i g; 0)
    spin = np.zeros((n + 1, 3, 2))  # [omega | alpha] of the base and the n links
    np.add.accumulate(axis_w * qd[:, None], axis=0, out=spin[1:, :, 0])
    axis_dot = kinematics._cross(spin[:-1, :, 0], axis_w)  # each axis is fixed in the link before its joint
    np.add.accumulate(axis_dot * qd[:, None], axis=0, out=spin[1:, :, 1])
    vel = qd @ cols
    origin_dot = np.zeros((n, 3))  # joint k's origin is point k - 1; joint 0's is fixed
    origin_dot[1:] = vel[:n - 1]
    body = slice(n - 1, None)  # the COMs and the end effector
    rates = kinematics._cross(axis_dot, arm[body]) + kinematics._cross(axis_w, vel[body, None] - origin_dot)
    acc = ((point_moves[body] * qd)[:, None, :] @ rates)[:, 0]
    inertial = k @ (k.transpose(0, 2, 1) @ spin[1:])  # I omega, I alpha
    wrench = np.zeros((n, 6, 2))
    wrench[:, :3, 0] = link_mass[:, None] * acc[:-1]
    wrench[:, 3:, 0] = inertial[:, :, 1] + kinematics._cross(spin[1:, :, 0], inertial[:, :, 0])
    wrench[:, :3, 1] = link_mass[:, None] * c.a_base[3:]
    forces = jac.transpose(1, 0, 2).reshape(n, 6 * n) @ wrench.reshape(6 * n, 2)
    return {"mass": mass, "bias": forces[:, 1] + forces[:, 0], "gravity": forces[:, 1],
            "jdot_qd": np.concatenate([acc[-1], spin[-1, :, 1]]),
            "jacobian": np.vstack([cols[-1].T, axis_w.T]),
            "jacobian_dot": np.vstack([rates[-1].T, axis_dot.T])}


@pytest.fixture(scope="session")
def pendulum():
    return make_pendulum()


@pytest.fixture(scope="session")
def gravity_pendulum():
    return make_gravity_pendulum()


@pytest.fixture(scope="session")
def planar_2dof():
    return make_planar_2dof()


@pytest.fixture(scope="session")
def desk_model():
    return load_bundled_model("rs007n")


@pytest.fixture(scope="session")
def desk_model_large():
    return load_bundled_model("rs020n")


@pytest.fixture(scope="session")
def seven_joint_model(desk_model):
    """rs007n with its last joint and link repeated: a seventh wrist joint."""
    return RobotModel(joints=desk_model.joints + desk_model.joints[-1:],
                      links=desk_model.links + desk_model.links[-1:],
                      gravity=desk_model.gravity, ee_transform=desk_model.ee_transform,
                      name="rs007n_7")


@pytest.fixture
def chain_counts(monkeypatch):
    """Count joint passes (chain states built), mass-matrix factorizations and
    batched world-frame passes (inverse dynamics and its derivatives)."""
    counts = {"passes": 0, "factors": 0, "derivatives": 0}
    init = kinematics.ChainState.__init__
    factor = dynamics.dpotrf
    derivatives = dynamics._id_derivatives

    def counting_init(self, *args, **kwargs):
        counts["passes"] += 1
        init(self, *args, **kwargs)

    def counting_factor(*args, **kwargs):
        counts["factors"] += 1
        return factor(*args, **kwargs)

    def counting_derivatives(*args, **kwargs):
        counts["derivatives"] += 1
        return derivatives(*args, **kwargs)

    monkeypatch.setattr(kinematics.ChainState, "__init__", counting_init)
    monkeypatch.setattr(dynamics, "dpotrf", counting_factor)
    monkeypatch.setattr(dynamics, "_id_derivatives", counting_derivatives)
    return counts


def recorded_builds(module, builder, scenario, controller, model, ticks):
    """(arguments, problem) of each call of module.builder over the first
    ticks of a bundled scenario run, the first from the scenario's rest start."""
    calls = []
    build = getattr(module, builder)

    def record(*args, **kwargs):
        calls.append(((args, kwargs), build(*args, **kwargs)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, builder, record)
        cfg = simulator.default_scenario_config(scenario, controller)
        cfg.max_ticks = ticks
        simulator.run_scenario(scenario, controller, load_bundled_model(model), cfg)
    return calls


def is_dual_step(rows):
    """A dual step of the QP solver holds every working row at zero."""
    return not rows.b.any()


@pytest.fixture
def kkt_counts(monkeypatch):
    """Count what the QP solver factors: the calls of each LAPACK routine it
    holds (by name), the dense numpy solves and factorizations called from it
    ("dense"), and its KKT solves by caller ("kkt"; a dual step is keyed
    "dual step", while "solve" holds the re-solves after dropping warm rows)."""
    routines = [name for name, fn in vars(qp).items() if isinstance(fn, type(lapack.dgbsv))]
    counts = {**dict.fromkeys(routines, 0), "dense": 0, "kkt": Counter()}

    def counting(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    def counting_dense(fn):
        def call(*args, **kwargs):
            counts["dense"] += sys._getframe(1).f_globals.get("__name__") == qp.__name__
            return fn(*args, **kwargs)
        return call

    kkt_solve = qp._kkt_solve

    def counting_kkt(rows, *args):
        caller = sys._getframe(1).f_code.co_name
        counts["kkt"]["dual step" if is_dual_step(rows) else caller] += 1
        return kkt_solve(rows, *args)

    for name in routines:
        monkeypatch.setattr(qp, name, counting(name, getattr(qp, name)))
    monkeypatch.setattr(qp, "_kkt_solve", counting_kkt)
    for name in ("solve", "lstsq", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting_dense(getattr(np.linalg, name)))
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_config(model, rng, margin=0.2):
    lo = model.limits.q_min
    hi = model.limits.q_max
    span = hi - lo
    return lo + span * (margin + (1 - 2 * margin) * rng.random(model.n))
