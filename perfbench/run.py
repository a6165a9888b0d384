#!/usr/bin/env python3
"""Closed-loop controller benchmark for armmpc.

Run from the repository root:

    python3 perfbench/run.py --workload dyn_payload --seed 0 --seconds 10 --trace 0

--workload takes a workload name from BENCHMARK.json, or ``all`` to run every
workload in one process. --trace 0 reports the end-to-end metrics of an
untraced run; --trace 1 reports the per-layer metrics of a traced run. A run
measures whole closed-loop passes until --seconds have elapsed, so a workload
whose pass is longer than that runs exactly one pass (two at seed 0, whose
per-tick logs must agree).

Times are given at a reference host speed: each timed interval is divided by
the mean reading of a fixed gauge kernel taken right before and after it and
multiplied by the kernel's reference time (see probes.HostGauge), so that a
shared host's changes of speed do not show as changes of the program. The
wall-clock figures are printed beside them as notes.

Human-readable lines come first. The last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 when every
correctness gate passed, 1 when one failed, and 2 when the arguments are
invalid or armmpc cannot be imported from the checkout's src/.
"""

import os

# Fixed before numpy is first imported, so BLAS starts single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def import_armmpc():
    """Import armmpc from the checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import armmpc

    if SRC.resolve() not in Path(armmpc.__file__).resolve().parents:
        raise ImportError(f"armmpc resolved to {armmpc.__file__}, not to {SRC}")
    return armmpc


def git_sha() -> str | None:
    """HEAD commit read from the checkout's .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the armmpc sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "armmpc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def report(name: str, outcome, units: dict, trace: bool) -> None:
    from probes import SETUP_LAYERS, TICK_LAYERS

    print(f"[{name}] {outcome.failed} of {outcome.attempted} controller calls failed")
    shown = set()
    if trace:
        m = outcome.metrics
        print(f"  {'layer':32} {'calls/tick':>10} {'ms/tick':>9} {'self ms':>9}  should move")
        for layer in TICK_LAYERS:
            keys = [f"{layer.label}.{stat}"
                    for stat in ("calls_per_tick", "ms_per_tick", "self_ms_per_tick")]
            calls, ms, self_ms = (m[key] for key in keys)
            print(f"  {layer.label:32} {calls:10.2f} {ms:9.4f} {self_ms:9.4f}  {layer.moves}")
            shown.update(keys)
        for layer in SETUP_LAYERS:
            key = f"{layer.label}.ms"
            print(f"  {layer.label:32} {m[key]:10.4f} ms per set-up  {layer.moves}")
            shown.add(key)
    for key, value in outcome.metrics.items():
        if key not in shown:
            print(f"  {key:42} {value:14.6g} {units[key]}")
    for key, value in outcome.notes.items():
        print(f"  {key:42} {value}  (not gated)")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    try:
        spec = json.loads(SPEC.read_text())
        import_armmpc()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench

    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"--workload must be one of {names} or all")
        names = [args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    run = bench.trace if args.trace else bench.measure

    print("provenance " + json.dumps(provenance(args)), flush=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for name in names:
            outcome = run(bench.WORKLOADS[name], args.seed, args.seconds, Path(tmp))
            if outcome.metrics.keys() != units.keys():
                raise RuntimeError(f"metrics {sorted(outcome.metrics.keys() ^ units.keys())} "
                                   "are not both measured and declared in BENCHMARK.json")
            report(name, outcome, units, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + key: {"value": value, "unit": units[key]}
                                      for key, value in outcome.metrics.items()})
            result["attempted"] += outcome.attempted
            result["failed"] += outcome.failed
            result["correct"] &= not outcome.problems and outcome.failed == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
