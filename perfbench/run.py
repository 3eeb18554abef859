"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the traced run of the same workload and
seed, printing the per-layer metrics.  Standard output carries an
environment stamp line and, as its last line, one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 5.1, "unit": "ms"}, ...}}

Exit code 0 only for a run whose every answer matched the reference; a run
with wrong or failed answers still prints its result line (``"correct":
false``) and exits 3.  A run that cannot be measured (missing sources, a
generator that fell behind its open-loop schedule, a wrong first answer)
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space of a run (native build cache, temporary files), git-ignored.
STATE_DIR = ROOT / ".perfbench"


def metric_units() -> dict:
    """Unit of every metric, as declared in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp(workload: str, seed: int, load_average: float) -> dict:
    import numpy

    sys.path.insert(0, str(ROOT))
    from benchmarks.record import environment_meta
    from repro.core.native.build import native_status

    stamp = environment_meta()
    stamp.update({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_library_built": native_status()["cached_library"] is not None,
        "load_average_1m": load_average,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    })
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    load_average = os.getloadavg()[0]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 1
    (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["ARE_NATIVE_CACHE"] = str(STATE_DIR / "native")
    os.environ["TMPDIR"] = str(STATE_DIR / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOAD_CLASSES, BenchmarkError

    if args.workload not in WORKLOAD_CLASSES:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOAD_CLASSES)}")

    print(json.dumps({"environment": environment_stamp(args.workload, args.seed, load_average)}),
          flush=True)
    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    try:
        if args.trace:
            metrics, tally = workload.trace(args.seconds)
        else:
            metrics, tally = workload.measure(args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = metric_units()
    for name, value in sorted(metrics.items()):
        print(f"perfbench: {args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"perfbench: {args.workload} error_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted})", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 3 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
