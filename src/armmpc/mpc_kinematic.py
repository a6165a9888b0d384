"""Condensed kinematic MPC for position-controlled robots.

The decision variable stacks the joint positions the plan can still
change, q_{i+1} .. q_{i+n_p}; the command already applied, q_i, and the
one before it are known. Velocities and accelerations are affine in that
stack: banded backward-difference operators, built once per (n, horizon,
dt) of the config, plus constant offsets into which those two past
commands fold. The tracking + damping + acceleration cost, each with a
scalar weight, is one strictly convex QP whose Hessian is a band (one
block per step, coupled to the steps that the difference operators reach)
with joint position and velocity bounds, plus terminal boxes when the
window reaches the end of the trajectory. Like the dynamic MPC's known
initial state, the applied command is no variable, so the QP has no
equality rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qp
from .horizon import HorizonConfig, RecedingHorizon, hessian_band
from .kinematics import ChainState
from .nominal import NominalRollout, ik_rollout
from .robot_model import JointLimits
from .trajgen import TaskTrajectory


@dataclass
class KinematicMpcConfig(HorizonConfig):
    task_weight: float = 2000.0
    damping_weight: float = 0.01
    accel_weight: float = 0.0  # on joint accelerations
    terminal_pos_tol: float = 1e-3  # rad, box around nominal q_N
    terminal_vel_tol: float = 1e-2  # rad/s


def _diff_offsets(n: int, steps: int, dt: float, q_prev, q_prev2):
    """Constant offsets of the difference operators over steps blocks: the
    two positions before them, q_prev and q_prev2, enter only here."""
    q_prev, q_prev2 = np.asarray(q_prev, dtype=float), np.asarray(q_prev2, dtype=float)
    vel_off, acc_off = np.zeros((2, steps * n))
    np.divide(q_prev, -dt, out=vel_off[:n])  # -q_prev / dt, to the bit
    np.divide(-2 * q_prev + q_prev2, dt**2, out=acc_off[:n])
    if steps >= 2:
        np.divide(q_prev, dt**2, out=acc_off[n:2 * n])
    return vel_off, acc_off


@lru_cache(maxsize=8)
def _diff_matrices(n: int, steps: int, dt: float):
    """Constant banded operator matrices over a stack of steps blocks, shared
    read-only by every caller: the first and second backward differences D
    and D^2, one n x n identity block per entry. Adding 0.0 clears the
    negative zeros that the -2 band of D^2 leaves off the block diagonals.
    Read-only, D is the QP's constant Ain, whose finiteness and pattern qp
    derives once (qp._constant_rows)."""
    diff = np.eye(steps) - np.eye(steps, k=-1)
    vel_op = np.kron(diff, np.eye(n)) / dt
    acc_op = np.kron(diff @ diff, np.eye(n)) / dt**2 + 0.0
    vel_op.setflags(write=False)
    acc_op.setflags(write=False)
    return vel_op, acc_op


@lru_cache(maxsize=8)
def _diff_cost(n: int, steps: int, dt: float, damping_weight: float, accel_weight: float):
    """Lower band of Q + Q' for the Hessian block Q = w_d D'D + w_a D2'D2 of
    both difference costs, velocity D and acceleration D2, shared read-only
    by every caller: n off the diagonal with damping alone, 2n with an
    acceleration cost, one row of zeros with neither weighted."""
    vel_op, acc_op = _diff_matrices(n, steps, dt)
    quad = (damping_weight * vel_op.T) @ vel_op + (accel_weight * acc_op.T) @ acc_op
    order = 2 if accel_weight else 1 if damping_weight else 0
    band = hessian_band(quad[None], 0, 0, steps * n, min(order * n, steps * n - 1))
    band.setflags(write=False)
    return band


@lru_cache(maxsize=8)
def _limit_rows(limits: JointLimits, steps: int) -> np.ndarray:
    """q_min, q_max, v_max and -v_max, one block per step, (4, steps * n):
    constant for a limits object and a horizon, shared read-only by every
    caller."""
    rows = np.repeat([[limits.q_min], [limits.q_max], [limits.v_max], [-limits.v_max]], steps,
                     axis=1)
    rows = rows.reshape(4, -1)
    rows.setflags(write=False)
    return rows


def build_kin_qp(cfg: KinematicMpcConfig, rollout: NominalRollout, history,
                 limits: JointLimits, terminal_widen: float | None = None) -> qp.QpProblem:
    """Assemble the tracking QP around the IK nominal.

    The variable stacks the positions q_1 .. q_{n_p} of the plan; q_0, the
    command already applied, and the one before it are history = (q_0,
    q_-1), which enter only the constant offsets of the differences. Cost:
    sum_{k>=1} w_task |err_k - J_k (q_k - qhat_k)|^2 + w_damp |qdot|^2 +
    w_accel |qddot|^2, with qdot/qddot the backward differences of the
    stack at cfg's horizon and dt; the terms that only q_0 and the history
    fix are constant and left out. Box bounds on positions and two-sided
    rows on the stacked velocities. terminal_widen, unless None, adds boxes
    of that many tolerances around the rollout's end position and velocity.
    H is the lower band of S + S' for the cost's Hessian S: hessian_band's
    of the task blocks plus _diff_cost's constant one of both differences.
    """
    steps, n = rollout.q_hat.shape
    if steps != cfg.horizon + 1:
        raise ValueError(f"rollout holds {steps} steps, config horizon needs {cfg.horizon + 1}")
    dim = cfg.horizon * n
    vel_op, acc_op = _diff_matrices(n, cfg.horizon, cfg.dt)
    vel_off, acc_off = _diff_offsets(n, cfg.horizon, cfg.dt, *history)

    cost = _diff_cost(n, cfg.horizon, cfg.dt, cfg.damping_weight, cfg.accel_weight)
    jac = rollout.j_stack[1:]
    jac_t = jac.transpose(0, 2, 1)
    jtj = np.matmul(cfg.task_weight * jac_t, jac)  # one block per step
    # the band of S + S', S's step blocks reaching n - 1 off the diagonal
    hess = hessian_band(jtj, 0, n, dim, max(n - 1, cost.shape[0] - 1))
    hess[:cost.shape[0]] += cost
    # first-order task error e(q) ~ err_hat - J (q - qhat): the target
    # vector keeps the nominal's own residual so the plan can beat it
    grad = 0.0 - (np.matmul(jac_t, (cfg.task_weight * rollout.err_stack[1:])[:, :, None])
                  + np.matmul(jtj, rollout.q_hat[1:, :, None])).ravel()
    if cfg.damping_weight:
        grad += vel_op.T @ (cfg.damping_weight * vel_off)
    if cfg.accel_weight:
        grad += acc_op.T @ (cfg.accel_weight * acc_off)

    lb, ub, vmax, vmin = _limit_rows(limits, cfg.horizon)
    lin = vmin - vel_off
    uin = vmax - vel_off

    if terminal_widen is not None:
        lb, ub = lb.copy(), ub.copy()
        eps_q = cfg.terminal_pos_tol * terminal_widen
        eps_v = cfg.terminal_vel_tol * terminal_widen
        last = slice(dim - n, dim)
        lb[last] = np.maximum(lb[last], rollout.q_hat[-1] - eps_q)
        ub[last] = np.minimum(ub[last], rollout.q_hat[-1] + eps_q)
        lin[last] = np.maximum(lin[last], rollout.qd_hat[-1] - eps_v - vel_off[last])
        uin[last] = np.minimum(uin[last], rollout.qd_hat[-1] + eps_v - vel_off[last])

    return qp.QpProblem(H=hess, g=2.0 * grad, lb=lb, ub=ub,
                        Ain=vel_op, lin=lin, uin=uin)


@dataclass
class KinStepResult:
    q_cmd: np.ndarray
    solution: qp.QpSolution | None
    rollout: NominalRollout
    degraded: bool
    plan: np.ndarray | None = None  # (horizon+1, n): the applied command, then the solved stack


class KinematicMpc(RecedingHorizon):
    """Receding-horizon position controller; one instance per robot."""

    def reset(self):
        super().reset()
        self._history = None  # (last command, the one before)

    def step(self, state: ChainState, traj: TaskTrajectory, tick: int) -> KinStepResult:
        """One control tick: returns the next commanded joint position.

        The plan continues the command signal from the last two commands
        (the measured position before the first tick); the measured chain
        state, which must be of this model, feeds back as the start of the
        IK rollout that the tracking cost linearizes around. traj must be
        sampled at the config's dt (else, as for a state of another model,
        ValueError). A degraded tick holds the last command.
        """
        model, cfg = self.model, self.cfg
        rot_t, pos_t, twists, includes_end = self._window(state, traj, tick)
        if self._history is None:
            self._history = (state.q.copy(), state.q.copy())
        rollout = ik_rollout(state, rot_t, pos_t, cfg.dt, cfg.svd_threshold, traj.tasks, twists=twists)
        solution, degraded = self._solve(
            lambda widen: build_kin_qp(cfg, rollout, self._history, model.limits,
                                       terminal_widen=widen),
            includes_end)
        last = self._history[0]
        plan = None if degraded else np.concatenate(
            [last[None], solution.z_star.reshape(cfg.horizon, model.n)])
        q_cmd = last.copy() if degraded else plan[1]
        self._history = (q_cmd.copy(), last)
        return KinStepResult(q_cmd=q_cmd, solution=solution, rollout=rollout, degraded=degraded,
                             plan=plan)
