"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evaluate-sweep --seed 1 --seconds 24 --trace 0

Run it from the root of a tsadeval checkout: it imports the package from
``src/`` of that checkout and refuses to run without it. It caps BLAS
threads at the number of usable cores, prints a table of every metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("evaluate-sweep", "attack-mix", "baseline-pipeline")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsadeval" / "cli.py").is_file():
        print(f"error: no tsadeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy reads these once, when it is first imported below
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={threads}")
    for name, value, unit in run["table"]:
        print(f"{name:<34} {value:>16.6g} {unit}")
    for failure in run["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
