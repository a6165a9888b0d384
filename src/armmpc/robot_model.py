"""Serial-chain robot description: loading, validation, payload composition.

Models are plain JSON documents (``*.robot.json``) with one robot per file.
Every joint is revolute. All angles are radians, lengths meters, ``rpy`` is
an intrinsic XYZ Euler rotation. Link inertia tensors are given as the 6
upper-triangular entries ``[ixx, ixy, ixz, iyy, iyz, izz]`` about the link
center of mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import blas
from scipy.spatial.transform import Rotation

DEFAULT_GRAVITY = (0.0, 0.0, -9.81)


class ModelError(ValueError):
    """A robot description violates a model invariant."""


class ModelParseError(ModelError):
    """A robot description file is malformed."""


def reject_bools(doc, where: str) -> None:
    """Raise ModelParseError for a JSON boolean anywhere in doc: float(True)
    is 1.0, so a bool would otherwise pass where a number is read."""
    if isinstance(doc, bool):
        raise ModelParseError(f"{where} is {str(doc).lower()}, not a number")
    if isinstance(doc, (list, tuple)):
        doc = dict(enumerate(doc))
    if isinstance(doc, dict):
        for key, val in doc.items():
            reject_bools(val, f"{where}[{key!r}]")


def require_number(value, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise error for a bool where a number is read: float(True) is 1.0."""
    if isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a number, got {value!r}")


def all_finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of the float arrays is finite, in one pass: a NaN
    or infinite entry makes the sum of squares NaN or infinite, so a finite
    sum clears every entry; only a sum that is not, as finite entries past
    about 1e154 give too, is checked entry by entry. The sums are BLAS dot
    products, which raise no floating-point warning."""
    total = 0.0
    for arr in arrays:
        flat = arr.ravel()
        if flat.size:  # ddot refuses an empty vector
            total += blas.ddot(flat, flat)  # a Python float: inf - inf is NaN, with no warning
    return total - total == 0.0 or all(np.isfinite(arr).all() for arr in arrays)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _array(x, name: str, shape: tuple[int, ...] = (3,)) -> np.ndarray:
    """A read-only float copy of x, of the given shape, all entries finite."""
    a = np.array(x, dtype=float)
    if a.shape != shape:
        raise ModelError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ModelError(f"{name} has non-finite entries")
    return _frozen(a)


def rpy_to_matrix(rpy) -> np.ndarray:
    """Rotation matrix for intrinsic XYZ Euler angles (roll, pitch, yaw)."""
    return Rotation.from_euler("XYZ", [rpy[0], rpy[1], rpy[2]]).as_matrix()


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation + translation; maps child-frame points into the parent frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _array(self.rotation, "rotation", (3, 3))
        if np.linalg.norm(rot @ rot.T - np.eye(3)) > 1e-9:
            raise ModelError("rotation matrix is not orthonormal")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", _array(self.translation, "translation"))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_xyz_rpy(xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return RigidTransform(rpy_to_matrix(rpy), np.asarray(xyz, dtype=float))

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


@dataclass(frozen=True, eq=False)
class JointSpec:
    """A revolute joint: its link sits at parent_transform in the parent
    link's frame and turns by q about axis."""

    axis: np.ndarray
    parent_transform: RigidTransform
    q_limits: tuple[float, float]
    v_limit: float
    u_limit: float

    def __post_init__(self):
        axis = _array(self.axis, "axis")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ModelError("joint axis must have unit norm")
        object.__setattr__(self, "axis", axis)
        lo, hi = float(self.q_limits[0]), float(self.q_limits[1])
        if not lo < hi:
            raise ModelError(f"q_limits must satisfy q_min < q_max, got [{lo}, {hi}]")
        object.__setattr__(self, "q_limits", (lo, hi))
        if not self.v_limit > 0:
            raise ModelError("v_limit must be positive")
        if not self.u_limit > 0:
            raise ModelError("u_limit must be positive")


@dataclass(frozen=True, eq=False)
class LinkInertia:
    mass: float
    com: np.ndarray
    inertia_tensor: np.ndarray

    def __post_init__(self):
        require_number(self.mass, "link mass", ModelError)
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ModelError(f"link mass must be finite and positive, got {self.mass}")
        object.__setattr__(self, "com", _array(self.com, "com"))
        tensor = _array(self.inertia_tensor, "inertia_tensor", (3, 3))
        if np.linalg.norm(tensor - tensor.T) > 1e-12 * (1 + np.abs(tensor).max()):
            raise ModelError("inertia_tensor must be symmetric")
        eig = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
        if eig[0] <= 0:
            raise ModelError("inertia_tensor must be positive definite")
        # principal moments of a physical rigid body satisfy the triangle inequalities
        if eig[0] + eig[1] < eig[2] * (1 - 1e-9):
            raise ModelError("inertia_tensor violates the triangle inequality")
        object.__setattr__(self, "inertia_tensor", tensor)


@dataclass(frozen=True, eq=False)
class PayloadSpec:
    mass: float
    com_offset: np.ndarray
    inertia_tensor: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        require_number(self.mass, "payload mass", ModelError)
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ModelError(f"payload mass must be finite and nonnegative, got {self.mass}")
        object.__setattr__(self, "com_offset", _array(self.com_offset, "com_offset"))
        tensor = _array(self.inertia_tensor, "payload inertia", (3, 3))
        if np.linalg.norm(tensor - tensor.T) > 1e-12 * (1 + np.abs(tensor).max()):
            raise ModelError("payload inertia must be symmetric")
        if np.linalg.eigvalsh(0.5 * (tensor + tensor.T))[0] < -1e-12:
            raise ModelError("payload inertia must be positive semidefinite")
        object.__setattr__(self, "inertia_tensor", tensor)


@dataclass(frozen=True, eq=False)
class JointLimits:
    """Per-joint bounds collected into arrays for controller consumption,
    each a read-only float copy: mpc_kinematic caches the rows it builds
    from a limits object."""

    q_min: np.ndarray
    q_max: np.ndarray
    v_max: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "v_max", "u_max"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Immutable serial-chain description. Safe to share across threads."""

    joints: tuple[JointSpec, ...]
    links: tuple[LinkInertia, ...]
    gravity: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_GRAVITY))
    ee_transform: RigidTransform = field(default_factory=RigidTransform.identity)
    name: str = "robot"

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.joints) < 1:
            raise ModelError("model needs at least one joint")
        if len(self.links) != len(self.joints):
            raise ModelError(
                f"serial chain needs one link per joint, got {len(self.links)} links "
                f"for {len(self.joints)} joints"
            )
        object.__setattr__(self, "gravity", _array(self.gravity, "gravity"))

    @cached_property
    def n(self) -> int:
        return len(self.joints)

    @cached_property
    def chain(self):
        """The kinematics._Chain of this model's constants, built once."""
        from .kinematics import _Chain  # kinematics imports this module

        return _Chain(self)

    @cached_property
    def limits(self) -> JointLimits:
        return JointLimits(
            q_min=[j.q_limits[0] for j in self.joints],
            q_max=[j.q_limits[1] for j in self.joints],
            v_max=[j.v_limit for j in self.joints],
            u_max=[j.u_limit for j in self.joints],
        )

    def check_q(self, q, name: str = "q") -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"{name} must have shape ({self.n},), got {q.shape}")
        return q


def _finite(x, where: str) -> float:
    """x as a float; ModelParseError if it is NaN or infinite (json.loads
    reads NaN and Infinity)."""
    x = float(x)
    if not math.isfinite(x):
        raise ModelParseError(f"{where} is {x}, not a finite number")
    return x


def _parse_inertia_upper(entries, where: str) -> np.ndarray:
    if len(entries) != 6:
        raise ModelParseError("inertia must list 6 upper-triangular entries")
    ixx, ixy, ixz, iyy, iyz, izz = (_finite(e, f"{where} inertia") for e in entries)
    return np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])


def _parse_transform(doc, name: str) -> RigidTransform:
    if doc is None:
        return RigidTransform.identity()
    try:
        rpy = [_finite(a, f"{name} rpy") for a in doc.get("rpy", (0, 0, 0))]
        return RigidTransform.from_xyz_rpy(doc.get("xyz", (0, 0, 0)), rpy)
    except (TypeError, KeyError, IndexError) as exc:
        raise ModelParseError(f"bad transform in {name}: {exc}") from exc


def load_model(path) -> RobotModel:
    """Load and validate a ``*.robot.json`` robot description.

    Raises ModelParseError for malformed files and ModelError (with the
    violated invariant named) for invalid models.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc, name_hint=path.stem)


def model_from_dict(doc: dict, name_hint: str = "robot") -> RobotModel:
    if not isinstance(doc, dict):
        raise ModelParseError("robot document must be a JSON object")
    reject_bools(doc, "robot")
    try:
        joint_docs = doc["joints"]
        link_docs = doc["links"]
    except KeyError as exc:
        raise ModelParseError(f"missing required key {exc}") from exc

    joints = []
    for i, jd in enumerate(joint_docs):
        try:
            limits = jd["limits"]
            if jd.get("kind", "revolute") != "revolute":
                raise ModelParseError(f"joint {i} has kind {jd['kind']!r}; "
                                      "only revolute joints are supported")
            joints.append(
                JointSpec(
                    axis=np.asarray(jd["axis"], dtype=float),
                    parent_transform=_parse_transform(jd.get("origin"), f"joint {i}"),
                    q_limits=(float(limits["q"][0]), float(limits["q"][1])),
                    v_limit=float(limits["v"]),
                    u_limit=float(limits["u"]),
                )
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ModelParseError(f"joint {i} is malformed: {exc}") from exc

    links = []
    for i, ld in enumerate(link_docs):
        try:
            links.append(
                LinkInertia(
                    mass=_finite(ld["mass"], f"link {i} mass"),
                    com=np.asarray(ld["com"], dtype=float),
                    inertia_tensor=_parse_inertia_upper(ld["inertia"], f"link {i}"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ModelParseError(f"link {i} is malformed: {exc}") from exc

    return RobotModel(
        joints=tuple(joints),
        links=tuple(links),
        gravity=np.asarray(doc.get("gravity", DEFAULT_GRAVITY), dtype=float),
        ee_transform=_parse_transform(doc.get("ee_transform"), "ee_transform"),
        name=str(doc.get("name", name_hint)),
    )


def _composite_inertia(bodies: list[tuple[float, np.ndarray, np.ndarray]]) -> LinkInertia:
    """Combine (mass, com, inertia-about-com) bodies into one rigid body."""
    total = sum(m for m, _, _ in bodies)
    com = sum(m * c for m, c, _ in bodies) / total
    tensor = np.zeros((3, 3))
    for m, c, ic in bodies:
        d = c - com
        tensor = tensor + ic + m * (np.dot(d, d) * np.eye(3) - np.outer(d, d))
    return LinkInertia(mass=total, com=com, inertia_tensor=0.5 * (tensor + tensor.T))


def attach_payload(model: RobotModel, payload: PayloadSpec) -> RobotModel:
    """Rigidly compose the payload with the last link (parallel-axis theorem).

    The payload com offset and inertia are expressed in the end-effector
    frame and mapped into the last link frame. A zero payload returns the
    model unchanged.
    """
    if payload.mass == 0.0 and not payload.inertia_tensor.any():
        return model
    last = model.links[-1]
    ee = model.ee_transform
    combined = _composite_inertia(
        [
            (last.mass, last.com, last.inertia_tensor),
            (payload.mass, ee.apply(payload.com_offset),
             ee.rotation @ payload.inertia_tensor @ ee.rotation.T),
        ]
    )
    return replace(model, links=model.links[:-1] + (combined,))
