"""Instrumentation the benchmark installs around armmpc from outside.

Nothing in ``src/armmpc`` is edited. A probe replaces a function or method
by a wrapper and puts the original back on ``Patches.close``. A module-level
function is replaced in every armmpc namespace that binds it, because
``from .x import y`` binds ``y`` in the importing module as well, and a call
through any of those names must reach the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from armmpc import qp

# The solver declares a solve optimal when its KKT residuals are within
# 1e-8 * (1 + |g|); the certificate re-checks that from outside and adds the
# dual-sign condition the solver does not report.
KKT_SCALE = 1e-8


class Patches:
    """Callables replaced by wrappers, restored in reverse order by close()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wrap_method(self, cls: type, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, make_wrapper(orig))
        self._undo.append((cls, name, orig))

    def wrap_function(self, module, name: str, make_wrapper, everywhere: bool = True) -> None:
        """Wrap module.name; with everywhere, also every armmpc alias of it."""
        orig = getattr(module, name)
        wrapper = make_wrapper(orig)
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").partition(".")[0] == "armmpc"]
        for mod in modules if everywhere else [module]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def close(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


@dataclass(frozen=True)
class Layer:
    """One traced armmpc callable and the end-to-end metric it should move."""

    label: str  # <module>.<function>, the prefix of its per-layer metrics
    module: str
    attr: str
    moves: str
    method_of: str | None = None  # class name when attr is a method

    def install(self, patches: Patches, make_wrapper) -> None:
        mod = importlib.import_module(f"armmpc.{self.module}")
        if self.method_of is None:
            patches.wrap_function(mod, self.attr, make_wrapper)
        else:
            patches.wrap_method(getattr(mod, self.method_of), self.attr, make_wrapper)


_KIN = "step_ms_p50 on kin_singularity"
_DYN = "step_ms_p50 on dyn_payload"
_CHAIN = "step_ms_p50 on dyn_payload and osc_payload"
_PLANT = "ticks_per_s on kin_singularity and osc_payload, not step_ms_*"

# Layers timed per tick: calls_per_tick, ms_per_tick and self_ms_per_tick.
TICK_LAYERS = (
    Layer("mpc_kinematic.step", "mpc_kinematic", "step", _KIN, "KinematicMpc"),
    Layer("nominal.ik_rollout", "nominal", "ik_rollout", _KIN),
    Layer("nominal.compact_svd_pinv", "nominal", "compact_svd_pinv", _KIN),
    Layer("kinematics.fk_jacobian_raw", "kinematics", "fk_jacobian_raw", _KIN),
    Layer("mpc_kinematic.build_kin_qp", "mpc_kinematic", "build_kin_qp", _KIN),
    Layer("mpc_dynamic.step", "mpc_dynamic", "step", _DYN, "DynamicMpc"),
    Layer("nominal.osc_rollout", "nominal", "osc_rollout", _DYN),
    Layer("mpc_dynamic.linearize_stage", "mpc_dynamic", "linearize_stage", _DYN),
    Layer("mpc_dynamic.build_prediction", "mpc_dynamic", "build_prediction", _DYN),
    Layer("mpc_dynamic.build_dyn_qp", "mpc_dynamic", "build_dyn_qp", _DYN),
    Layer("dynamics.dynamics_derivatives", "dynamics", "dynamics_derivatives", _DYN),
    Layer("nominal.osc_torque", "nominal", "osc_torque", _CHAIN),
    Layer("dynamics.mass_matrix", "dynamics", "mass_matrix", _CHAIN),
    Layer("dynamics.bias_forces", "dynamics", "bias_forces", _CHAIN),
    Layer("dynamics.forward_dynamics", "dynamics", "forward_dynamics", _CHAIN),
    Layer("kinematics.jacobian_dot", "kinematics", "jacobian_dot", _CHAIN),
    Layer("qp.solve", "qp", "solve", "step_ms_p90 on dyn_payload, not kin_singularity",
          "QpSolver"),
    Layer("simulator.step_position_plant", "simulator", "step_position_plant", _PLANT),
    Layer("simulator.step_torque_plant", "simulator", "step_torque_plant", _PLANT),
)

# Layers run once per set-up: reported as the median ms of one call.
SETUP_LAYERS = (
    Layer("robot_model.load_model", "robot_model", "load_model", "setup_s on every workload"),
    Layer("robot_model.attach_payload", "robot_model", "attach_payload",
          "setup_s on dyn_payload and osc_payload"),
    Layer("trajgen.scenario_trajectory", "trajgen", "scenario_trajectory",
          "setup_s on every workload"),
)


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)  # inclusive, per call
    self_s: float = 0.0  # inclusive time minus the time of traced callees


class Tracer:
    """Nested spans around each layer, aggregated per label in memory."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # callee time accumulated by each open span

    def install(self, patches: Patches, layers) -> None:
        for layer in layers:
            layer.install(patches, self._spanner(layer.label))

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.durations.clear()
            stats.self_s = 0.0

    def _spanner(self, label: str):
        stats = self.stats.setdefault(label, SpanStats())
        open_spans = self._open

        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                open_spans.append(0.0)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    stats.durations.append(dur)
                    stats.self_s += dur - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += dur
            return span
        return make


def certified(problem: qp.QpProblem, sol: qp.QpSolution) -> bool:
    """Complete convex-QP certificate of a solve the solver marked optimal.

    Stationarity, feasibility and complementarity at the solver's own scale,
    plus non-negative multipliers on the active inequality rows.
    """
    scale = KKT_SCALE * (1.0 + float(np.linalg.norm(problem.g)))
    res = qp.kkt_check(problem, sol.z_star, sol.active_set, sol.multipliers)
    if not res.max() <= scale:
        return False
    n_eq = qp.expand_constraints(problem).n_eq
    lam_in = [lam for row, lam in zip(sol.active_set, sol.multipliers) if row >= n_eq]
    lam_max = float(np.abs(sol.multipliers).max(initial=0.0))
    return not lam_in or min(lam_in) >= -KKT_SCALE * (1.0 + lam_max)


class HostGauge:
    """Times a fixed kernel of the benchmark's own to read the host's speed.

    A shared host can run this process at speeds up to about twice apart
    and switch between them within milliseconds or seconds. The kernel is
    read right before and after each controller call, and a timed interval
    divided by the mean of the readings around it, times REFERENCE_S, gives
    the interval at the speed at which the kernel takes REFERENCE_S. The
    kernel mixes small numpy calls and plain Python, as the controllers do,
    and runs no armmpc code, so a change to armmpc cannot move it.
    """

    REFERENCE_S = 1e-4  # about one reading on an uncontended core

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((7, 7)) / 7.0
        self._v = rng.standard_normal(7)

    def __call__(self) -> float:
        a, v = self._a, self._v
        t0 = time.perf_counter()
        for _ in range(25):
            v = np.tanh(a @ v) + np.cos(v)
        x, slots = 0.0, {}
        for i in range(400):
            x += 0.5 * i
            slots[i & 15] = x
        return time.perf_counter() - t0


class TickProbe:
    """Times every controller call from outside and gates what it returns.

    A call fails when the controller reports it degraded, when its command
    has a non-finite entry, or when a solve it marked optimal fails
    ``certified``. The host gauge is read right before and after the timed
    region and the gate runs after it; the time of both is recorded so it can
    be kept out of the closed-loop tick rate.
    """

    def __init__(self, command: str | None, gauge: HostGauge):
        self.command = command  # attribute holding the command; None: the return value
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.call_starts: list[float] = []  # per pass: entry time of each call
        self.gate_s: list[float] = []  # per pass: gauge and gate time of each call
        self.gauges: list[tuple[float, float]] = []  # per pass: readings around each call
        self.step_s: list[float] = []  # durations of every call but a pass's first
        self.step_gauge: list[float] = []  # mean reading around each call in step_s
        self.solves: list[tuple[int, int]] = []  # (iterations, active rows) per solve
        self.hot_attempts = 0
        self.hot_accepted = 0
        self._pending: list[tuple[qp.QpProblem, qp.QpSolution]] = []

    def install(self, patches: Patches, module: str, attr: str,
                method_of: str | None = None) -> None:
        """Wrap the controller entry point and the QP solver's two methods.

        A function entry is wrapped only where the simulator calls it, so
        other callers of the same function stay untimed.
        """
        mod = importlib.import_module(f"armmpc.{module}")
        if method_of is None:
            patches.wrap_function(mod, attr, self._time_call, everywhere=False)
        else:
            patches.wrap_method(getattr(mod, method_of), attr, self._time_call)
        patches.wrap_method(qp.QpSolver, "solve", self._keep_solve)
        patches.wrap_method(qp.QpSolver, "_try_hot_start", self._count_hot_start)

    def begin_pass(self) -> None:
        self.call_starts = []
        self.gate_s = []
        self.gauges = []

    def reset_samples(self) -> None:
        """Drop per-call samples (not the failure counts) gathered so far."""
        self.step_s.clear()
        self.step_gauge.clear()
        self.solves.clear()
        self.hot_attempts = self.hot_accepted = 0

    def _time_call(self, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t_in = time.perf_counter()
            before = self.gauge()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            after = self.gauge()
            if self.call_starts:
                self.step_s.append(t1 - t0)
                self.step_gauge.append(0.5 * (before + after))
            self.call_starts.append(t_in)
            self.gauges.append((before, after))
            self._gate(out)
            self.gate_s.append(t0 - t_in + time.perf_counter() - t1)
            return out
        return call

    def _gate(self, out) -> None:
        self.attempted += 1
        cmd = out if self.command is None else getattr(out, self.command)
        ok = bool(np.all(np.isfinite(cmd))) and not getattr(out, "degraded", False)
        for problem, sol in self._pending:
            self.solves.append((sol.iterations, len(sol.active_set)))
            if sol.status == qp.OPTIMAL and not certified(problem, sol):
                ok = False
        self._pending.clear()
        self.failed += not ok

    def _keep_solve(self, fn):
        @functools.wraps(fn)
        def solve(solver, problem, *args, **kwargs):
            sol = fn(solver, problem, *args, **kwargs)
            self._pending.append((problem, sol))
            return sol
        return solve

    def _count_hot_start(self, fn):
        @functools.wraps(fn)
        def try_hot_start(*args, **kwargs):
            sol = fn(*args, **kwargs)  # None: the warm active set was rejected
            self.hot_attempts += 1
            self.hot_accepted += sol is not None
            return sol
        return try_hot_start
