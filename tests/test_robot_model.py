import json
import math

import numpy as np
import pytest

from armmpc import bundled_model_path, load_model
from armmpc.robot_model import (
    LinkInertia,
    ModelError,
    ModelParseError,
    PayloadSpec,
    attach_payload,
    model_from_dict,
    rpy_to_matrix,
)
from armmpc.dynamics import mass_matrix
from armmpc.kinematics import Pose
from armmpc.nominal import POSITION, TaskSpec
from armmpc.simulator import PositionLoopGains
from armmpc.trajgen import TaskTrajectory

from conftest import make_pendulum, random_config, rotvec_to_matrix


def test_load_rs007n_torque_limits():
    model = load_model(bundled_model_path("rs007n"))
    assert model.n == 6
    np.testing.assert_allclose(model.limits.u_max, [239.0, 239.0, 124.5, 32.0, 40.96, 25.6])


def test_minimal_single_joint_model(tmp_path):
    doc = {
        "name": "mini",
        "joints": [
            {"kind": "revolute", "axis": [0, 0, 1], "origin": {"xyz": [0, 0, 0]},
             "limits": {"q": [-3, 3], "v": 5.0, "u": 10.0}}
        ],
        "links": [{"mass": 1.0, "com": [1, 0, 0], "inertia": [1e-12, 0, 0, 1e-12, 0, 1e-12]}],
        "ee_transform": {"xyz": [1, 0, 0]},
    }
    path = tmp_path / "mini.robot.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.n == 1
    assert model.links[0].mass == 1.0


def two_joint_doc():
    """A valid two-joint robot document; the second joint has no kind key."""
    return {
        "gravity": [0, 0, -9.81],
        "joints": [
            {"kind": "revolute", "axis": [0, 0, 1], "origin": {"xyz": [0, 0, 0.3], "rpy": [0, 0, 0]},
             "limits": {"q": [-3, 3], "v": 5.0, "u": 10.0}},
            {"axis": [0, 1, 0], "origin": {"xyz": [0.4, 0, 0]},
             "limits": {"q": [-2, 2], "v": 4.0, "u": 8.0}},
        ],
        "links": [{"mass": 2.0, "com": [0.2, 0, 0], "inertia": [1e-2, 0, 0, 1e-2, 0, 1e-2]},
                  {"mass": 1.0, "com": [0.1, 0, 0], "inertia": [1e-3, 0, 0, 1e-3, 0, 1e-3]}],
    }


def test_joint_kind_is_optional_and_revolute():
    model = model_from_dict(two_joint_doc())
    assert model.n == 2
    np.testing.assert_array_equal(model.joints[1].axis, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("kind", ["prismatic", "fixed", "Revolute"])
def test_non_revolute_joint_rejected(tmp_path, kind):
    doc = two_joint_doc()
    doc["joints"][1]["kind"] = kind
    path = tmp_path / "bad.robot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match=f"joint 1 has kind '{kind}'"):
        load_model(path)


# every number the loader reads, set to a JSON boolean: float(True) is 1.0,
# so each of these would load as a number
@pytest.mark.parametrize("where", [
    ("gravity", 2),
    ("joints", 0, "axis", 2),
    ("joints", 1, "origin", "xyz", 0),
    ("joints", 0, "origin", "rpy", 1),
    ("joints", 1, "limits", "q", 1),
    ("joints", 0, "limits", "v"),
    ("joints", 1, "limits", "u"),
    ("links", 0, "mass"),
    ("links", 1, "com", 0),
    ("links", 0, "inertia", 0),
], ids=["gravity", "axis", "origin-xyz", "origin-rpy", "q-limit", "v-limit", "u-limit",
        "mass", "com", "inertia"])
def test_json_boolean_is_not_a_number(tmp_path, where):
    doc = two_joint_doc()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = True
    path = tmp_path / "bool.robot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match="is true, not a number"):
        load_model(path)


# json.loads reads NaN and Infinity; each of these would load, or fail later
# or with a bare ValueError
@pytest.mark.parametrize("where, value, match", [
    (("links", 0, "mass"), math.inf, "link 0 mass is inf"),
    (("links", 1, "mass"), math.nan, "link 1 mass is nan"),
    (("links", 0, "inertia", 3), math.inf, "link 0 inertia is inf"),
    (("links", 1, "inertia", 1), math.nan, "link 1 inertia is nan"),
    (("joints", 0, "origin", "rpy", 0), math.nan, "joint 0 rpy is nan"),
    (("joints", 0, "origin", "rpy", 2), math.inf, "joint 0 rpy is inf"),
    (("ee_transform", "rpy", 1), -math.inf, "ee_transform rpy is -inf"),
], ids=["mass-inf", "mass-nan", "inertia-inf", "inertia-nan", "rpy-nan", "rpy-inf", "ee-rpy-inf"])
def test_non_finite_number_is_a_parse_error(tmp_path, where, value, match):
    doc = two_joint_doc()
    doc["ee_transform"] = {"xyz": [0.1, 0, 0], "rpy": [0, 0, 0]}
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = tmp_path / "nonfinite.robot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match=match):
        load_model(path)


def test_rpy_is_intrinsic_xyz(rng):
    # roll about x, then pitch about the turned y, then yaw about the twice
    # turned z: R = Rx(roll) Ry(pitch) Rz(yaw)
    for rpy in rng.uniform(-math.pi, math.pi, (20, 3)):
        want = np.eye(3)
        for axis, angle in zip(np.eye(3), rpy):
            want = want @ rotvec_to_matrix(angle * axis)
        np.testing.assert_allclose(rpy_to_matrix(rpy), want, rtol=0, atol=1e-15)


def test_short_ee_rpy_is_a_parse_error():
    # the joint loop wraps its own IndexError; the end-effector transform's
    # used to escape bare
    doc = two_joint_doc()
    doc["ee_transform"] = {"rpy": [0, 0]}
    with pytest.raises(ModelParseError, match="bad transform in ee_transform"):
        model_from_dict(doc)


def test_infinite_joint_limits_load(tmp_path):
    # unbounded joints are supported: the non-finite check skips the limits
    doc = two_joint_doc()
    doc["joints"][0]["limits"]["q"] = [-math.inf, math.inf]
    path = tmp_path / "unbounded.robot.json"
    path.write_text(json.dumps(doc))
    assert load_model(path).limits.q_max[0] == math.inf


@pytest.mark.parametrize("make", [
    lambda: LinkInertia(mass=math.inf, com=np.zeros(3), inertia_tensor=np.eye(3)),
    lambda: LinkInertia(mass=1.0, com=np.zeros(3), inertia_tensor=np.diag([1.0, math.nan, 1.0])),
    lambda: PayloadSpec(mass=1.0, com_offset=np.zeros(3), inertia_tensor=np.diag([math.inf, 1.0, 1.0])),
    lambda: PayloadSpec(mass=1.0, com_offset=np.zeros(3), inertia_tensor=np.full((3, 3), math.nan)),
], ids=["link-mass-inf", "link-inertia-nan", "payload-inertia-inf", "payload-inertia-nan"])
def test_non_finite_inertia_rejected(make):
    with pytest.raises(ModelError, match="finite"):
        make()


@pytest.mark.parametrize("make, field", [
    (lambda v: TaskSpec(priority=v, selector=POSITION), "priority"),
    (lambda v: TaskSpec(priority=1, selector=POSITION, gain=v), "gain"),
    (lambda v: PositionLoopGains(kp=v), "kp"),
    (lambda v: PositionLoopGains(kd=v), "kd"),
    (lambda v: PayloadSpec(mass=v, com_offset=np.zeros(3)), "payload mass"),
    (lambda v: LinkInertia(mass=v, com=np.zeros(3), inertia_tensor=np.eye(3)), "link mass"),
    (lambda v: TaskTrajectory(dt=v, poses=(Pose(np.array([1.0, 0, 0, 0]), np.zeros(3)),)), "dt"),
], ids=["task-priority", "task-gain", "loop-kp", "loop-kd", "payload-mass", "link-mass",
        "trajectory-dt"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_scalar_fields_reject_a_bool(make, field, value):
    # float(True) is 1.0: each of these used to take True as 1 and False as 0
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        make(value)


def test_inverted_q_limits_rejected(tmp_path):
    doc = {
        "joints": [
            {"kind": "revolute", "axis": [0, 0, 1],
             "limits": {"q": [1.0, -1.0], "v": 5.0, "u": 10.0}}
        ],
        "links": [{"mass": 1.0, "com": [0, 0, 0], "inertia": [1e-3, 0, 0, 1e-3, 0, 1e-3]}],
    }
    path = tmp_path / "bad.robot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="q_min < q_max"):
        load_model(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.robot.json"
    path.write_text("{not json")
    with pytest.raises(ModelParseError):
        load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelParseError):
        load_model(tmp_path / "nope.robot.json")


def test_non_spd_inertia_rejected():
    with pytest.raises(ModelError, match="positive definite"):
        LinkInertia(mass=1.0, com=np.zeros(3), inertia_tensor=np.diag([1.0, 1.0, -0.1]))


def test_triangle_inequality_rejected():
    with pytest.raises(ModelError, match="triangle"):
        LinkInertia(mass=1.0, com=np.zeros(3), inertia_tensor=np.diag([0.1, 0.1, 0.5]))


def test_attach_zero_payload_is_identity(desk_model):
    out = attach_payload(desk_model, PayloadSpec(mass=0.0, com_offset=np.zeros(3)))
    assert out is desk_model


def test_attach_point_mass_at_ee_origin(desk_model):
    payload = PayloadSpec(mass=12.0, com_offset=np.zeros(3))
    out = attach_payload(desk_model, payload)
    last = desk_model.links[-1]
    new = out.links[-1]
    assert new.mass == pytest.approx(last.mass + 12.0, abs=1e-12)
    ee_in_link = desk_model.ee_transform.translation
    expected_com = (last.mass * last.com + 12.0 * ee_in_link) / (last.mass + 12.0)
    np.testing.assert_allclose(new.com, expected_com, atol=1e-12)


def test_attach_payload_matches_point_mass_composition():
    # oracle: rebuild the composite from the primitive point masses directly
    model = make_pendulum(mass=1.0, length=1.0)
    offset = np.array([0.0, 0.0, 0.1])
    payload = PayloadSpec(mass=1.0, com_offset=offset)
    out = attach_payload(model, payload)

    p1 = np.array([1.0, 0.0, 0.0])  # link point mass (com), link frame
    p2 = model.ee_transform.apply(offset)  # payload point, link frame
    masses = [1.0, 1.0]
    com = (masses[0] * p1 + masses[1] * p2) / sum(masses)
    inertia = np.zeros((3, 3))
    for m, p in zip(masses, [p1, p2]):
        d = p - com
        inertia += m * (np.dot(d, d) * np.eye(3) - np.outer(d, d))

    new = out.links[-1]
    assert new.mass == pytest.approx(2.0)
    np.testing.assert_allclose(new.com, com, atol=1e-12)
    np.testing.assert_allclose(new.inertia_tensor, inertia, atol=1e-9)


def test_loaded_model_mass_matrix_spd(desk_model, rng):
    for _ in range(5):
        q = random_config(desk_model, rng)
        m = mass_matrix(desk_model, q)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m)[0] > 0
