"""Write BENCH_<LABEL>.json: every benchmark workload, run once untraced
and once traced, with the commit and the machine it ran on.

Usage, from anywhere:

    python tools/bench.py LABEL [--seconds 24] [--seed 1]

Each workload runs through perfbench.harness.run_workload, as
perfbench/run.py runs it, in a process of its own: untraced for its
end-to-end metrics, then traced for its per-layer metrics. The file goes
to the root of the checkout, and an existing file is never overwritten.
Per workload it holds `correct`, `attempted` and `failed` over both
runs, `end_to_end` and `per_layer`; for the whole file, the seed, the
seconds per run, the commit (`git rev-parse HEAD`, or null outside a git
checkout) and whether tracked files held uncommitted changes, the usable
cores and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit() -> tuple:
    """(HEAD's hash, whether tracked files differ from it), or (None,
    None) outside a git checkout."""
    def git(*args) -> str:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True,
        )
        return done.stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(status)


def write_bench(label: str, seconds: float, seed: int, folder: Path = ROOT,
                sizes=None) -> Path:
    """Run every workload and write folder/BENCH_<label>.json; sizes, a
    perfbench.workloads.Sizes, defaults to the benchmark's own."""
    path = Path(folder) / f"BENCH_{label}.json"
    if path.exists():
        raise FileExistsError(f"{path} exists; pick another label")
    import numpy as np
    from perfbench.harness import run_workload
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import Sizes

    sizes = sizes or Sizes()
    workloads = {}
    # each workload in a fresh interpreter, as perfbench/run.py runs it,
    # untraced first: the peak RSS a run reports is its process's so far
    spawn = multiprocessing.get_context("spawn")
    for name in WORKLOAD_NAMES:
        with spawn.Pool(1) as pool:
            runs = [
                pool.apply(run_workload, (name, seed, seconds, trace, sizes))
                for trace in (False, True)
            ]
        for run in runs:
            for failure in run["failures"]:
                print(f"FAILED: {name}: {failure}", file=sys.stderr)
        untraced, traced = (run["result"] for run in runs)
        failed = untraced["failed"] + traced["failed"]
        workloads[name] = {
            "correct": failed == 0,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": failed,
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    commit, dirty = _commit()
    record = {
        "label": label,
        "seed": seed,
        "seconds": seconds,
        "commit": commit,
        "dirty": dirty,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    with open(path, "x") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT)]
    from perfbench.run import BLAS_THREAD_VARS

    # numpy reads these once, when it is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src")]
    try:
        path = write_bench(args.label, args.seconds, args.seed)
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
