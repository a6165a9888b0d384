"""Nominal trajectory generation for the MPC linearizations.

Two generators: prioritized inverse-kinematics rollouts for the kinematic
controller, and hierarchical operational-space torque rollouts for the
dynamic controller. Each step tracks one target rotation and position (array
rows, no Pose) and its 6-twist, the feedforward; each level tracks its rows.
Both run one task-priority recursion (_prioritize), weighted by the
identity for the IK and by M^-1 for the OSC, whose truncated level inverses
keep commands bounded near singular configurations. The hierarchy is
resolved once per task tuple (_levels), with every gain stacked over the
task rows, so a step forms all levels' reference velocities (IK) or forces
(OSC) in one pass before the recursion, and each level then only maps its
rows through its inverse. Each step writes every level's projected Jacobian
and error into its rows of the per-step stack that the MPC cost linearizes
around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dsyevd

from .dynamics import RigidBodyState
from .kinematics import ChainState, fk_jacobian_raw, pose_error_raw
from .robot_model import all_finite, require_number

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
    """One task level: what part of the pose it controls and its gains; kp
    and kd are kept as read-only copies, since _hierarchy caches what it
    derives from a spec."""

    priority: int
    selector: str
    gain: float = 1.0  # velocity-IK error gain
    kp: np.ndarray | None = None  # OSC stiffness (per task dim)
    kd: np.ndarray | None = None  # OSC damping

    def __post_init__(self):
        require_number(self.priority, "priority")
        require_number(self.gain, "gain")
        if not (math.isfinite(self.priority) and self.priority >= 1):  # NaN would sort anywhere
            raise ValueError(f"priority must be finite and >= 1 (1 = highest), got {self.priority}")
        if self.selector not in _SELECTOR_ROWS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError(f"gain must be finite and positive, got {self.gain}")
        for name in ("kp", "kd"):
            val = getattr(self, name)
            if val is not None:
                arr = np.array(val, dtype=float)
                if arr.shape != (self.dim,):
                    raise ValueError(f"{name} must have shape ({self.dim},)")
                if not np.all(np.isfinite(arr) & (arr >= 0)):
                    raise ValueError(f"{name} must be finite and entrywise nonnegative")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def rows(self) -> slice:
        return _SELECTOR_ROWS[self.selector]

    @property
    def dim(self) -> int:
        r = self.rows
        return r.stop - r.start


def default_task_hierarchy() -> tuple[TaskSpec, ...]:
    """Position above orientation, with the reference controller gains."""
    return (
        TaskSpec(priority=1, selector=POSITION, gain=20.0, kp=np.full(3, 100.0), kd=np.array([7.0, 13.0, 7.0])),
        TaskSpec(priority=2, selector=ORIENTATION, gain=20.0, kp=np.full(3, 20.0), kd=np.full(3, 1.5)),
    )


@dataclass(frozen=True, eq=False)
class PostureSpec:
    """Joint-space impedance acting in the null space of all tasks."""

    q_des: np.ndarray
    kp: np.ndarray
    kd: np.ndarray

    def __post_init__(self):
        for name in ("q_des", "kp", "kd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.shape != np.shape(self.q_des):
                raise ValueError(f"{name} must be a vector as long as q_des")
            if not np.all(np.isfinite(arr) & ((arr >= 0) | (name == "q_des"))):
                raise ValueError(f"{name} must be finite" + ("" if name == "q_des" else " and nonnegative"))
            object.__setattr__(self, name, arr)


def default_posture(q_des) -> PostureSpec:
    """The reference posture impedance about q_des; joints past the sixth take its gains."""
    q_des = np.asarray(q_des, dtype=float)
    joint = np.minimum(np.arange(q_des.size), 5)
    return PostureSpec(
        q_des=q_des,
        kp=np.array([100.0, 100.0, 100.0, 50.0, 50.0, 1.0])[joint],
        kd=np.array([3.0, 5.0, 5.0, 0.2, 0.2, 0.1])[joint],
    )


@dataclass(frozen=True, eq=False)
class NominalRollout:
    """Horizon-length nominal produced by IK or OSC.

    q_hat/qd_hat are (n_p+1, n); j_stack is (n_p+1, n_g, n) projected task
    Jacobians; err_stack is (n_p+1, n_g), the nominal's own task errors in
    the same row order; u_hat and qdd_hat (the accelerations u_hat drives)
    are (n_p, n) and x_hat (n_p+1, 2n) for dynamic rollouts, whose states
    hold the n_p stage RigidBodyStates, at x_hat[:-1] (none if kinematic).
    """

    q_hat: np.ndarray
    qd_hat: np.ndarray
    j_stack: np.ndarray
    err_stack: np.ndarray
    u_hat: np.ndarray | None = None
    x_hat: np.ndarray | None = None
    qdd_hat: np.ndarray | None = None
    states: tuple[RigidBodyState, ...] = ()

    def __post_init__(self):
        steps = self.q_hat.shape[0]
        if self.qd_hat.shape != self.q_hat.shape:
            raise ValueError("qd_hat shape must match q_hat")
        if self.j_stack.shape[0] != steps or self.j_stack.shape[2] != self.q_hat.shape[1]:
            raise ValueError("j_stack must hold one (n_g, n) slice per step")
        if self.err_stack.shape != self.j_stack.shape[:2]:
            raise ValueError("err_stack rows must match j_stack")
        for name in ("u_hat", "qdd_hat"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != steps - 1:
                raise ValueError(f"{name} must have n_p rows")
        if self.states and len(self.states) != steps - 1:
            raise ValueError("states must hold one chain state per stage")
        if not all_finite(self.q_hat, self.qd_hat, self.j_stack, self.err_stack):
            raise ValueError("rollout has non-finite entries")


def compact_svd_pinv(jac: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Moore-Penrose pseudoinverse with small singular values truncated, by SVD.

    Singular values below rel_threshold * sigma_max are dropped, bounding
    the inverse's norm near singularities; sigma_max itself is always kept.
    All-zero input yields the zero matrix. The IK forms J' pinv(J J') through
    _psd_pinv instead, with the cut at rel_threshold**2 on the Gram
    eigenvalues; this is the plain reference it is checked against.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in (0, 1)")
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    u, sigma, vt = np.linalg.svd(jac, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return np.zeros((n, m))
    keep = sigma >= rel_threshold * sigma[0]
    return (vt[keep].T / sigma[keep]) @ u[:, keep].T


def _psd_pinv(sym: np.ndarray, floor: float) -> np.ndarray:
    """Pseudoinverse of a symmetric matrix with its eigenvalues below floor *
    lambda_max dropped, every negative one among them (the zero matrix if
    lambda_max <= 0); a LinAlgError if an entry is not finite.

    A 3 x 3 matrix, read as Python floats from its upper triangle, that is
    positive definite by Sylvester's test (a > 0, a d > b^2, det > 0) and
    has det >= floor trace^3 keeps every direction, and its inverse is the
    adjugate over the determinant: with the eigenvalues r1 <= r2 <= 1 of
    the largest's, det / trace^3 = r1 r2 / (1 + r1 + r2)^3 <= r1 / 6.75, so
    there r1 >= 6.75 floor and the truncation would drop nothing. Otherwise,
    for an indefinite matrix (det > 0 too with two negative eigenvalues), a
    matrix whose det or trace^3 overflows (entries past about 1e102) and
    other sizes, the truncation runs on LAPACK's dsyevd over the lower
    triangle, called directly: the routine and the triangle that
    np.linalg.eigh uses, so the same bits, at less than half of eigh's time
    on a 3 x 3; a nonzero info is a LinAlgError, as in eigh.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError("the relative eigenvalue floor must lie in (0, 1)")
    if sym.shape[0] == 3:
        (a, b, c), (b_low, d, e), (c_low, e_low, f) = sym.tolist()
        # a NaN or infinite entry makes the sum of all nine NaN or infinite,
        # and then total - total is NaN: a check without a function call
        total = a + b + c + b_low + d + e + c_low + e_low + f
        if total - total != 0.0:
            raise np.linalg.LinAlgError("the matrix to invert is not finite")
        c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
        det = a * c00 + b * c01 + c * c02
        trace = a + d + f
        cube = trace * trace * trace
        # past entries of about 1e102 det or trace^3 overflows, and the closed
        # form with it (an infinite det would scale the adjugate to zero);
        # x - x is 0.0 for a finite x alone
        if (det - det == 0.0 and cube - cube == 0.0 and det > 0.0 and det >= floor * cube
                and a > 0.0 and a * d > b * b):
            c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
            inv_det = 1.0 / det
            c00, c01, c02 = c00 * inv_det, c01 * inv_det, c02 * inv_det
            c11, c12, c22 = c11 * inv_det, c12 * inv_det, c22 * inv_det
            return np.array([c00, c01, c02, c01, c11, c12, c02, c12, c22]).reshape(3, 3)
    elif not np.isfinite(sym).all():
        raise np.linalg.LinAlgError("the matrix to invert is not finite")
    vals, vecs, info = dsyevd(sym, compute_v=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalues did not converge (dsyevd info {info})")
    if vals[-1] <= 0.0:
        return np.zeros_like(sym)
    keep = vals >= floor * vals[-1]
    basis = vecs[:, keep]
    return (basis / vals[keep]) @ basis.T


@lru_cache(maxsize=8)
def _hierarchy(tasks: tuple) -> tuple[tuple, slice | np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """_levels' part that depends on the tasks alone, shared read-only by
    every rollout over the same task tuple."""
    levels, rows, gains, kp, kd = [], [], [], [], []
    n_g = 0
    for task in sorted(tasks, key=lambda t: t.priority):
        pose, dim = task.rows, task.dim
        levels.append((pose, slice(n_g, n_g + dim)))
        rows.extend(range(pose.start, pose.stop))
        gains.extend([task.gain] * dim)
        kp.append(task.kp if task.kp is not None else np.full(dim, 100.0))
        kd.append(task.kd if task.kd is not None else np.full(dim, 10.0))
        n_g += dim
    if not levels:
        raise ValueError("the task hierarchy needs at least one level")
    stacks = np.array(gains), np.concatenate(kp), np.concatenate(kd)
    for arr in stacks:
        arr.setflags(write=False)
    # rows in order and without a gap (position above orientation) index as
    # a slice, which gathers nothing
    span = slice(rows[0], rows[-1] + 1)
    return (tuple(levels), span if rows == list(range(span.start, span.stop)) else np.array(rows),
            *stacks)


def _levels(tasks, steps: int, n: int) -> tuple[tuple, slice | np.ndarray, np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray, np.ndarray]:
    """The task hierarchy resolved: one (rows, out) per level in priority
    order, with rows the level's rows of the 6-pose and out its rows of the
    stacks; the 6-pose row of each of the n_g stacked rows (an index array,
    or a slice where they run in order without a gap), its IK gain and its
    OSC stiffness and damping, defaults filled in, (n_g,) each (levels may
    overlap, so none is per pose row); and the empty (steps, n_g, n)
    projected-Jacobian and (steps, n_g) error stacks."""
    hierarchy = _hierarchy(tuple(tasks))
    if steps < 1:
        raise ValueError("a rollout needs at least one target")
    n_g = hierarchy[2].size
    return (*hierarchy, np.empty((steps, n_g, n)), np.empty((steps, n_g)))


# A level after the first whose projected Jacobian is below this fraction of
# its own rows (Frobenius norms) has no freedom left: the levels above span
# its rows, and a cut relative to J_p's own scale would invert the roundoff
# of J P. That roundoff reads 1e-16..2e-9 of J on the bundled arms, and a
# second level of position/orientation 0.25 and above (see CHANGES.md).
_NO_FREEDOM = 1e-8


@lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, shared read-only by every chain of n joints."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _prioritize(levels, jac_full, floor: float, jac_out: np.ndarray, minv=None,
                last_projector: bool = False):
    """The task-priority recursion, the one walk over the task levels.

    Per level in priority order: writes its projected Jacobian J_p = J P
    into its rows of jac_out, and yields (level, J_p, lam, jbar, P - jbar
    J_p), with lam the inverse of J_p W J_p' truncated below floor *
    lambda_max and jbar = W J_p' lam. The metric W is minv (the OSC's
    dynamically consistent inverse; Khatib, 1987) or, if None, the identity
    (the IK's; Siciliano & Slotine, 1991). P starts as the identity, never
    formed; the last projector is None unless asked for. A level with no
    freedom left (_NO_FREEDOM) gets J_p = 0, so lam = 0, jbar = 0 and P
    passes on unchanged.
    """
    proj = None
    last = len(levels) - 1
    for i, level in enumerate(levels):
        jac = jac_full[level[0]]
        if proj is None:
            jac_proj = jac
            jac_out[level[1]] = jac
        else:
            jac_proj = np.matmul(jac, proj, out=jac_out[level[1]])
            if np.vdot(jac_proj, jac_proj) <= _NO_FREEDOM**2 * np.vdot(jac, jac):
                jac_proj.fill(0.0)
        w_jt = jac_proj.T if minv is None else minv @ jac_proj.T
        lam = _psd_pinv(jac_proj @ w_jt, floor)
        jbar = w_jt @ lam
        wanted = i < last or last_projector
        proj = ((_identity(jac_full.shape[1]) if proj is None else proj) - jbar @ jac_proj) if wanted else None
        yield level, jac_proj, lam, jbar, proj


def _rollout_steps(rotations, positions, dt: float, twists) -> tuple[int, np.ndarray]:
    """The step count of a rollout toward (steps, 3, 3) rotations and (steps, 3)
    positions, and its (steps, 6) twists (None: zeros); else ValueError, as for a bad dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    lead = positions.shape[:1]  # .shape reads, not np.shape calls, on every tick
    if positions.shape != lead + (3,) or rotations.shape != lead + (3, 3):
        raise ValueError(f"targets must be (m, 3, 3), (m, 3): got {rotations.shape}, {positions.shape}")
    steps = lead[0]
    twists = np.zeros((steps, 6)) if twists is None else np.asarray(twists, dtype=float)
    if twists.shape != (steps, 6):
        raise ValueError(f"twists must be ({steps}, 6), got {twists.shape}")
    return steps, twists


def ik_rollout(start: ChainState, rotations, positions, dt: float, rel_threshold: float,
               tasks, twists=None) -> NominalRollout:
    """Integrate the prioritized IK from the chain state start toward n_p+1
    target rotations (n_p+1, 3, 3) and positions (n_p+1, 3).

    Each step is one velocity command executing the task hierarchy: every
    level tracks its selected rows of the step's pose, with the desired
    6-twist in twists, (n_p+1, 6), as feedforward on top of the proportional
    error term (None: zero). Recursion over priority levels: each level's
    correction goes through the pseudoinverse of its projected Jacobian,
    with singular values below rel_threshold * sigma_max truncated, and
    leaves all higher-priority task velocities untouched. Step 0 reads the
    frames and J of start; every later step makes one chain pass
    (fk_jacobian_raw). A single IK step is a one-pose rollout's qd_hat[0]:
    the same frames and _prioritize call, with no integration after the
    last pose.
    """
    steps, twists = _rollout_steps(rotations, positions, dt, twists)
    model, n = start.model, start.model.n
    levels, pose_rows, gains, _, _, j_stack, err_stack = _levels(tasks, steps, n)
    twists = twists[:, pose_rows]  # the feedforward of each stacked row
    q_hat = np.empty((steps, n))
    qd_hat = np.empty((steps, n))
    q = q_hat[0] = start.q
    rot, pos, jac = start.ee_rot, start.ee_pos, start.jacobian()
    # the cut at rel_threshold**2 on J_p J_p' is the cut at rel_threshold on
    # J_p's singular values; a negative rel_threshold clips to 0, rejected
    floor = max(rel_threshold, 0.0)**2
    for k in range(steps):
        err = err_stack[k] = pose_error_raw(rotations[k], positions[k], rot, pos)[pose_rows]
        ref_vel = gains * err + twists[k]  # every level's reference velocity
        qd = None  # summed into its row of qd_hat
        for (rows, out), _, _, jbar, _ in _prioritize(levels, jac, floor, j_stack[k]):
            if qd is None:
                qd = np.matmul(jbar, ref_vel[out], out=qd_hat[k])
            else:
                qd += jbar @ (ref_vel[out] - jac[rows] @ qd)
        if k + 1 < steps:
            q = np.add(q, dt * qd, out=q_hat[k + 1])
            rot, pos, jac = fk_jacobian_raw(model, q)
    return NominalRollout(q_hat=q_hat, qd_hat=qd_hat, j_stack=j_stack, err_stack=err_stack)


def osc_torque(state: RigidBodyState, tasks, rotation, position, rel_threshold: float,
               posture: PostureSpec | None = None, twist=None) -> np.ndarray:
    """Hierarchical operational-space torque toward one target rotation (3, 3)
    and position (3,) from a chain state at (q, qd), whose M, b and frames it reads.

    Every level tracks its selected rows of the target and of the optional
    6-twist (None: zero): a task-space PD force weighted by the task-space
    inertia, mapped through the projected Jacobian transpose; lower levels
    act through dynamically consistent null-space projectors, the posture
    impedance acts in the final null space, and the bias forces are
    compensated exactly. A plain ChainState (no qd), a target of other
    shapes or a twist that is not a 6-vector is a ValueError.
    """
    if not isinstance(state, RigidBodyState):
        raise ValueError(f"osc_torque needs a RigidBodyState, got a {type(state).__name__}")
    if rotation.shape != (3, 3) or position.shape != (3,):
        raise ValueError(f"target must be (3, 3), (3,): got {rotation.shape}, {position.shape}")
    levels, pose_rows, _, kp, kd, jac, err = _levels(tasks, 1, state.model.n)
    twist = np.zeros(6) if twist is None else np.asarray(twist, dtype=float)
    if twist.shape != (6,):
        raise ValueError(f"twist must be (6,), got {twist.shape}")
    twist = twist[pose_rows]  # the feedforward of each stacked row
    return _osc_torque(state, levels, pose_rows, kp, kd, rotation, position, rel_threshold,
                       posture, twist, jac[0], err[0])


def _osc_torque(st: RigidBodyState, levels, pose_rows: np.ndarray, kp: np.ndarray,
                kd: np.ndarray, rotation: np.ndarray, position: np.ndarray, rel_threshold: float,
                posture: PostureSpec | None, twist: np.ndarray, jac_out: np.ndarray,
                err_out: np.ndarray) -> np.ndarray:
    """osc_torque at a chain state whose M, b and frames it shares with the
    caller, over resolved levels with their stacked gains and twist rows;
    writes each level's projected Jacobian and error into its rows of
    jac_out and err_out."""
    qd = st.qd
    jac_full = st.jacobian()
    err = err_out[:] = pose_error_raw(rotation, position, st.ee_rot, st.ee_pos)[pose_rows]
    # every level's reference force at once, over the n_g stacked rows
    force = kd * (twist - jac_full[pose_rows] @ qd) + kp * err - st.jdot_qd[pose_rows]

    u = None
    # lam is the task-space inertia, the inverse of J_p M^-1 J_p' truncated
    # on its own eigenvalues; proj is left at the last level's projector
    for (_, out), jac_proj, lam, _, proj in _prioritize(
            levels, jac_full, rel_threshold, jac_out, st.minv,
            last_projector=posture is not None):
        tau = jac_proj.T @ (lam @ force[out])
        u = tau if u is None else u + tau

    if posture is not None:
        u = u + proj.T @ (posture.kp * (posture.q_des - st.q) - posture.kd * qd)
    return u + st.bias


def osc_rollout(start: RigidBodyState, rotations, positions, dt: float, rel_threshold: float,
                tasks, posture: PostureSpec | None = None, twists=None) -> NominalRollout:
    """Simulate the OSC controller from the chain state start toward n_p+1
    target rotations (n_p+1, 3, 3) and positions (n_p+1, 3), with their
    (n_p+1, 6) desired twists (None: zero), by semi-implicit Euler.

    Torques are clamped to the model limits before integration, so the
    recorded nominal is realizable by the torque-limited plant. The chain
    state of each stage, start first, and the solved accelerations are kept
    on the rollout, so a linearization along it reuses each state's mass
    matrix, factor and bias forces and solves no forward dynamics again.
    The last step's torque would never be applied, so that step only fills
    its rows of the task stacks, and its state is not kept. A plain
    ChainState (no qd) is a ValueError.
    """
    if not isinstance(start, RigidBodyState):
        raise ValueError(f"osc_rollout needs a RigidBodyState, got a {type(start).__name__}")
    steps, twists = _rollout_steps(rotations, positions, dt, twists)
    model, n = start.model, start.model.n
    u_max = model.limits.u_max
    levels, pose_rows, _, kp, kd, j_stack, err_stack = _levels(tasks, steps, n)
    twists = twists[:, pose_rows]  # the feedforward of each stacked row

    x_hat = np.empty((steps, 2 * n))
    u_hat = np.empty((steps - 1, n))
    qdd_hat = np.empty_like(u_hat)
    states = []
    st = start
    for k in range(steps):
        x_hat[k, :n], x_hat[k, n:] = st.q, st.qd
        if k + 1 == steps:  # the last torque is never applied: fill only the task stacks
            err_stack[k] = pose_error_raw(rotations[k], positions[k], st.ee_rot,
                                          st.ee_pos)[pose_rows]
            for _ in _prioritize(levels, st.jacobian(), rel_threshold, j_stack[k], st.minv):
                pass
            break
        u = _osc_torque(st, levels, pose_rows, kp, kd, rotations[k], positions[k],
                        rel_threshold, posture, twists[k], j_stack[k], err_stack[k])
        u_hat[k] = np.clip(u, -u_max, u_max)
        states.append(st)
        st, qdd_hat[k] = st.semi_implicit_step(u_hat[k], dt)
    return NominalRollout(q_hat=x_hat[:, :n], qd_hat=x_hat[:, n:], j_stack=j_stack,
                          err_stack=err_stack, u_hat=u_hat, x_hat=x_hat, qdd_hat=qdd_hat,
                          states=tuple(states))
