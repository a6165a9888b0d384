"""Nominal trajectory generation for the MPC linearizations.

Two generators: prioritized inverse-kinematics rollouts for the kinematic
controller, and hierarchical operational-space torque rollouts for the
dynamic controller. Both guard every pseudoinverse with the compact
(truncated) SVD so commands stay bounded near singular configurations, and
both record the per-step stack of projected task Jacobians that the MPC
cost linearizes around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .dynamics import RigidBodyState
from .kinematics import Pose, fk_jacobian_raw, geometric_jacobian, pose_error_raw
from .robot_model import RobotModel

POSITION = "position"
ORIENTATION = "orientation"
FULL_POSE = "full_pose"

_SELECTOR_ROWS = {
    POSITION: slice(0, 3),
    ORIENTATION: slice(3, 6),
    FULL_POSE: slice(0, 6),
}


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """One task level: what part of the pose it controls and its gains."""

    priority: int
    selector: str
    gain: float = 1.0  # velocity-IK error gain
    kp: np.ndarray | None = None  # OSC stiffness (per task dim)
    kd: np.ndarray | None = None  # OSC damping

    def __post_init__(self):
        if self.priority < 1:
            raise ValueError("priority must be >= 1 (1 = highest)")
        if self.selector not in _SELECTOR_ROWS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if not self.gain > 0:
            raise ValueError("gain must be positive")
        for name in ("kp", "kd"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float)
                if arr.shape != (self.dim,):
                    raise ValueError(f"{name} must have shape ({self.dim},)")
                if np.any(arr < 0):
                    raise ValueError(f"{name} must be entrywise nonnegative")
                object.__setattr__(self, name, arr)

    @property
    def rows(self) -> slice:
        return _SELECTOR_ROWS[self.selector]

    @property
    def dim(self) -> int:
        r = self.rows
        return r.stop - r.start


def default_task_hierarchy(ik_gain: float = 20.0,
                           kp_pos=(100.0, 100.0, 100.0), kd_pos=(7.0, 13.0, 7.0),
                           kp_ori=(20.0, 20.0, 20.0), kd_ori=(1.5, 1.5, 1.5)) -> tuple[TaskSpec, ...]:
    """Position above orientation, with the reference controller gains."""
    return (
        TaskSpec(priority=1, selector=POSITION, gain=ik_gain, kp=np.asarray(kp_pos), kd=np.asarray(kd_pos)),
        TaskSpec(priority=2, selector=ORIENTATION, gain=ik_gain, kp=np.asarray(kp_ori), kd=np.asarray(kd_ori)),
    )


@dataclass(frozen=True, eq=False)
class PostureSpec:
    """Joint-space impedance acting in the null space of all tasks."""

    q_des: np.ndarray
    kp: np.ndarray
    kd: np.ndarray


def default_posture(q_des) -> PostureSpec:
    return PostureSpec(
        q_des=np.asarray(q_des, dtype=float),
        kp=np.array([100.0, 100.0, 100.0, 50.0, 50.0, 1.0][: len(q_des)]),
        kd=np.array([3.0, 5.0, 5.0, 0.2, 0.2, 0.1][: len(q_des)]),
    )


@dataclass(frozen=True, eq=False)
class NominalRollout:
    """Horizon-length nominal produced by IK or OSC.

    q_hat/qd_hat are (n_p+1, n); j_stack is (n_p+1, n_g, n) projected task
    Jacobians; err_stack is (n_p+1, n_g), the nominal's own task errors in
    the same row order; u_hat is (n_p, n) and x_hat (n_p+1, 2n) for dynamic
    rollouts.
    """

    q_hat: np.ndarray
    qd_hat: np.ndarray
    j_stack: np.ndarray
    err_stack: np.ndarray
    u_hat: np.ndarray | None = None
    x_hat: np.ndarray | None = None

    def __post_init__(self):
        steps = self.q_hat.shape[0]
        if self.qd_hat.shape != self.q_hat.shape:
            raise ValueError("qd_hat shape must match q_hat")
        if self.j_stack.shape[0] != steps or self.j_stack.shape[2] != self.q_hat.shape[1]:
            raise ValueError("j_stack must hold one (n_g, n) slice per step")
        if self.err_stack.shape != self.j_stack.shape[:2]:
            raise ValueError("err_stack rows must match j_stack")
        if self.u_hat is not None and self.u_hat.shape[0] != steps - 1:
            raise ValueError("u_hat must have n_p rows")
        for arr in (self.q_hat, self.qd_hat, self.j_stack, self.err_stack):
            if not np.all(np.isfinite(arr)):
                raise ValueError("rollout has non-finite entries")

    @property
    def horizon(self) -> int:
        return self.q_hat.shape[0] - 1

    @property
    def task_dim(self) -> int:
        return self.j_stack.shape[1]


def compact_svd_pinv(jac: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Moore-Penrose pseudoinverse with small singular values truncated.

    Singular values below rel_threshold * sigma_max are dropped, bounding
    the inverse's norm near singularities. All-zero input (or everything
    truncated) yields the zero matrix. Small row counts take a Gram
    eigendecomposition shortcut; kept directions are far from the squared
    floor by construction, so the result matches the SVD path.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in (0, 1)")
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    if 0 < m <= 3 and m <= n:
        vals, vecs = np.linalg.eigh(jac @ jac.T)
        vals = np.clip(vals, 0.0, None)
        if vals[-1] <= 0.0:
            return np.zeros((n, m))
        keep = vals >= (rel_threshold**2) * vals[-1]
        if not np.any(keep):
            return np.zeros((n, m))
        basis = vecs[:, keep]
        return jac.T @ (basis / vals[keep]) @ basis.T
    u, sigma, vt = np.linalg.svd(jac, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return np.zeros((n, m))
    keep = sigma >= rel_threshold * sigma[0]
    if not np.any(keep):
        return np.zeros((n, m))
    return (vt[keep].T / sigma[keep]) @ u[:, keep].T


def _stack_targets(tasks, targets) -> list[tuple[TaskSpec, Pose]]:
    if len(targets) != len(tasks):
        raise ValueError("need one target pose per task")
    order = sorted(range(len(tasks)), key=lambda i: tasks[i].priority)
    return [(tasks[i], targets[i]) for i in order]


def prioritized_ik_step(model: RobotModel, q, tasks, targets, rel_threshold: float,
                        twists=None, record=None) -> np.ndarray:
    """Joint velocity command executing the task hierarchy at configuration q.

    Recursion over priority levels: each level's correction is computed with
    the truncated-SVD pseudoinverse of its projected Jacobian and leaves all
    higher-priority task velocities untouched. Optional twists add a task
    velocity feedforward on top of the proportional error term.
    """
    q = model.check_q(q)
    rot_c, pos_c, jac_full = fk_jacobian_raw(model, q)
    qd = np.zeros(model.n)
    proj = np.eye(model.n)
    ordered = _stack_targets(tasks, targets)
    err_cache: dict[int, np.ndarray] = {}
    for level, (task, target) in enumerate(ordered):
        rows = task.rows
        jac_t = jac_full[rows]
        err_full = err_cache.get(id(target))
        if err_full is None:
            err_full = pose_error_raw(target.rotation_matrix, target.translation, rot_c, pos_c)
            err_cache[id(target)] = err_full
        err = err_full[rows]
        ref_vel = task.gain * err
        if twists is not None and twists[level] is not None:
            ref_vel = ref_vel + np.asarray(twists[level], dtype=float)[rows]
        jac_proj = jac_t @ proj
        pinv = compact_svd_pinv(jac_proj, rel_threshold)
        qd = qd + pinv @ (ref_vel - jac_t @ qd)
        proj = proj - pinv @ jac_proj
        if record is not None:
            record.append((jac_proj, err))
    return qd


def task_jacobian_stack(model: RobotModel, q, tasks, rel_threshold: float) -> np.ndarray:
    """Stack of projected task Jacobians at q, ordered by priority."""
    jac_full = geometric_jacobian(model, q)
    proj = np.eye(model.n)
    blocks = []
    for task in sorted(tasks, key=lambda t: t.priority):
        jac_proj = jac_full[task.rows] @ proj
        blocks.append(jac_proj)
        pinv = compact_svd_pinv(jac_proj, rel_threshold)
        proj = proj - pinv @ jac_proj
    return np.vstack(blocks)


def ik_rollout(model: RobotModel, q0, window, dt: float, rel_threshold: float,
               tasks) -> NominalRollout:
    """Integrate the prioritized IK over a target window of n_p+1 poses.

    window supplies one target pose per step (optionally with a desired
    6-twist); every task level tracks its selected rows of that pose.
    """
    poses, twists = _window_arrays(window)
    steps = len(poses)
    if steps < 1:
        raise ValueError("window must contain at least one target")
    n = model.n
    n_g = sum(t.dim for t in tasks)
    q_hat = np.empty((steps, n))
    qd_hat = np.empty((steps, n))
    j_stack = np.empty((steps, n_g, n))
    err_stack = np.empty((steps, n_g))
    q = model.check_q(q0).copy()
    for k in range(steps):
        record: list = []
        targets = [poses[k]] * len(tasks)
        step_twists = None if twists is None else [twists[k]] * len(tasks)
        qd = prioritized_ik_step(model, q, tasks, targets, rel_threshold,
                                 twists=step_twists, record=record)
        q_hat[k] = q
        qd_hat[k] = qd
        j_stack[k] = np.vstack([jac for jac, _ in record])
        err_stack[k] = np.concatenate([err for _, err in record])
        if k + 1 < steps:
            q = q + dt * qd
    return NominalRollout(q_hat=q_hat, qd_hat=qd_hat, j_stack=j_stack, err_stack=err_stack)


def _window_arrays(window):
    """Accept a list of Poses or of (Pose, twist-or-None) pairs."""
    poses = []
    twists = []
    has_twist = False
    for item in window:
        if isinstance(item, Pose):
            poses.append(item)
            twists.append(None)
        else:
            pose, twist = item
            poses.append(pose)
            twists.append(None if twist is None else np.asarray(twist, dtype=float))
            has_twist = has_twist or twist is not None
    return poses, (twists if has_twist else None)


def osc_torque(model: RobotModel, q, qd, tasks, targets, rel_threshold: float,
               posture: PostureSpec | None = None, twists=None, accels=None,
               record=None) -> np.ndarray:
    """Hierarchical operational-space torque for the given task targets.

    Per level: a task-space PD force weighted by the task-space inertia,
    mapped through the projected Jacobian transpose; lower levels act through
    dynamically consistent null-space projectors, the posture impedance acts
    in the final null space, and the bias forces are compensated exactly.
    """
    st = RigidBodyState(model, model.check_q(q), model.check_q(qd, "qd"))
    return _osc_torque(st, tasks, targets, rel_threshold, posture, twists, accels, record)


def _osc_torque(st: RigidBodyState, tasks, targets, rel_threshold: float,
                posture: PostureSpec | None, twists, accels, record) -> np.ndarray:
    """osc_torque at a chain state whose M, b and frames it shares with the caller."""
    q, qd = st.q, st.qd
    n = st.chain.n
    minv = cho_solve(st.factor, np.eye(n))
    *_, rot_c, pos_c = st.frames
    jac_full = st.jacobian()
    jdot_full = st.jacobian_dot()

    u = np.zeros(n)
    proj = np.eye(n)
    ordered = _stack_targets(tasks, targets)
    for level, (task, target) in enumerate(ordered):
        rows = task.rows
        jac_t = jac_full[rows]
        err = pose_error_raw(target.rotation_matrix, target.translation, rot_c, pos_c)[rows]
        vel = jac_t @ qd
        ref_vel = np.zeros(task.dim)
        if twists is not None and twists[level] is not None:
            ref_vel = np.asarray(twists[level], dtype=float)[rows]
        ref_acc = np.zeros(task.dim)
        if accels is not None and accels[level] is not None:
            ref_acc = np.asarray(accels[level], dtype=float)[rows]
        kp = task.kp if task.kp is not None else np.full(task.dim, 100.0)
        kd = task.kd if task.kd is not None else np.full(task.dim, 10.0)
        acc_des = ref_acc + kd * (ref_vel - vel) + kp * err

        jac_proj = jac_t @ proj
        if record is not None:
            record.append((jac_proj, err))
        lam = compact_svd_pinv(jac_proj @ minv @ jac_proj.T, rel_threshold)
        force = lam @ (acc_des - jdot_full[rows] @ qd)
        u = u + jac_proj.T @ force
        jbar = minv @ jac_proj.T @ lam  # dynamically consistent inverse
        proj = proj - jbar @ jac_proj

    if posture is not None:
        tau_posture = posture.kp * (posture.q_des - q) - posture.kd * qd
        u = u + proj.T @ tau_posture
    return u + st.bias


def osc_rollout(model: RobotModel, x0, window, dt: float, rel_threshold: float,
                tasks, posture: PostureSpec | None = None) -> NominalRollout:
    """Simulate the OSC controller over the window with semi-implicit Euler.

    Torques are clamped to the model limits before integration, so the
    recorded nominal is realizable by the torque-limited plant.
    """
    poses, twists = _window_arrays(window)
    steps = len(poses)
    if steps < 1:
        raise ValueError("window must contain at least one target")
    n = model.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2 * n,):
        raise ValueError(f"x0 must have shape ({2 * n},)")
    u_max = model.limits.u_max
    n_g = sum(t.dim for t in tasks)

    x_hat = np.empty((steps, 2 * n))
    u_hat = np.empty((max(steps - 1, 0), n))
    j_stack = np.empty((steps, n_g, n))
    err_stack = np.empty((steps, n_g))
    q = x0[:n].copy()
    qd = x0[n:].copy()
    for k in range(steps):
        x_hat[k] = np.concatenate([q, qd])
        record: list = []
        targets = [poses[k]] * len(tasks)
        step_twists = None if twists is None else [twists[k]] * len(tasks)
        st = RigidBodyState(model, q, qd)
        u = _osc_torque(st, tasks, targets, rel_threshold, posture, step_twists, None, record)
        j_stack[k] = np.vstack([jac for jac, _ in record])
        err_stack[k] = np.concatenate([err for _, err in record])
        if k + 1 < steps:
            u = np.clip(u, -u_max, u_max)
            u_hat[k] = u
            qd = qd + dt * st.forward_dynamics(u)
            q = q + dt * qd
    return NominalRollout(
        q_hat=x_hat[:, :n],
        qd_hat=x_hat[:, n:],
        j_stack=j_stack,
        err_stack=err_stack,
        u_hat=u_hat if steps > 1 else np.zeros((0, n)),
        x_hat=x_hat,
    )
