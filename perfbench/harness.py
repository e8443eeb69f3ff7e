"""Closed-loop runner: one client runs the next command only after the last.

Every operation calls ``tsadeval.cli.main(argv)`` in this process and then
checks the outputs. There is no untimed warm-up: users start a fresh
process for every command, so first-call costs are theirs too. A run
with tracing off reports the end-to-end metrics; a traced run alternates
untraced and traced operations and reports the per-layer metrics, plus the
tracing overhead as the ratio of their median times.

The cores of the machine the benchmark was built on are shared with other
tenants, and its speed drifts by up to half over minutes while a run lasts
seconds. So every timed interval is followed by a fixed reference loop, and
a run reports its median wall time times REFERENCE_SECONDS over the median
reference time: the time an interval takes while the reference loop takes
REFERENCE_SECONDS. Raw wall medians are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tsadeval import cli

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# about the median of reference_loop() on a 2-core Xeon VM at 2.0 GHz
REFERENCE_SECONDS = 0.17
_REFERENCE_DATA = np.random.default_rng(0).random(50_000)
_REFERENCE_FLAGS = (_REFERENCE_DATA > 0.9).astype(np.int8)


def reference_loop() -> float:
    """Time a fixed mix of interpreter and array work, like tsadeval's."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    # thresholding passes over 50k-point arrays, as in a threshold sweep
    for threshold in _REFERENCE_DATA[:1500]:
        flags = (_REFERENCE_DATA >= threshold).astype(np.int8)
        ((flags != 0) & (flags != 1)).any()
        np.count_nonzero(flags & _REFERENCE_FLAGS)
    return time.perf_counter() - start


def scaled_median(walls: list, references: list) -> float:
    """Median wall time as it reads when reference_loop() takes REFERENCE_SECONDS."""
    return (
        statistics.median(walls) * REFERENCE_SECONDS / statistics.median(references)
    )


# The child times the reference loop itself, after the import: a loop timed
# here, while the child exits on the other core, reads up to twice too slow.
_IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import tsadeval.cli; "
    "elapsed = time.perf_counter() - start; "
    "from perfbench.harness import reference_loop; "
    "print(repr(elapsed), repr(reference_loop()))"
)


def measure_setup(reps: int) -> float:
    """Median scaled time for a fresh interpreter to import tsadeval.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    times, references = [], []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        elapsed, reference = done.stdout.split()[-2:]
        times.append(float(elapsed))
        references.append(float(reference))
    return scaled_median(times, references)


class _Client:
    """Runs one workload's operations and counts the ones that fail."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def operation(self) -> float:
        """Run one operation, check it and return its wall time."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in self.workload.commands:
                    code = cli.main(argv)
                    if code != 0:
                        raise RuntimeError(
                            f"{argv[0]} exited {code}: {sink.getvalue()[-500:]}"
                        )
            elapsed = time.perf_counter() - start
            problem = self.workload.check()
        except Exception:
            elapsed = time.perf_counter() - start
            problem = traceback.format_exc(limit=3)
        if problem:
            self.failures.append(problem)
        return elapsed


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = Sizes(),
) -> dict:
    """One benchmark run; returns the result object and a printable table."""
    # a fixed path keeps the manifests, and so the byte counts, the same
    workdir = OUT_DIR / f"work-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        client = _Client(WORKLOADS[name](sizes, seed, workdir))
        if trace:
            metrics = _traced_loop(client, seconds, name)
        else:
            setup_s = measure_setup(sizes.setup_reps)
            metrics = dict(_untraced_loop(client, seconds), setup_s=setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(client.failures)
    units = {
        m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    table = [(k, metrics[k], units[k]) for k in units]
    if not trace:
        op = metrics["op_p50_s"]
        table += [
            (k, per_op / op, unit)
            for k, (unit, per_op) in client.workload.throughput.items()
        ]
        table.append(("error_rate", failed / client.attempted, "ratio"))
        table.append(("op_wall_p50_s", metrics["op_wall_p50_s"], "s"))
    else:
        table.append(("op_traced_mean_s", metrics["op_traced_mean_s"], "s"))
    return {
        "result": {
            "correct": failed == 0,
            "attempted": client.attempted,
            "failed": failed,
            "metrics": {
                k: {"value": metrics[k], "unit": units[k]} for k in units
            },
        },
        "table": table,
        "failures": client.failures,
    }


def _untraced_loop(client: _Client, seconds: float) -> dict:
    times, references = [], [reference_loop()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(client.operation())
        references.append(reference_loop())
    op = scaled_median(times, references)
    return {
        "op_wall_p50_s": statistics.median(times),
        "op_p50_s": op,
        "points_per_s": client.workload.points / op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced_loop(client: _Client, seconds: float, name: str) -> dict:
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(client.operation())
        booked = tracer.bookkeeping_s
        tracer.install()
        try:
            elapsed = client.operation()
        finally:
            tracer.uninstall()
        traced.append(elapsed - (tracer.bookkeeping_s - booked))
    tracer.save(OUT_DIR / f"trace-{name}.npz")
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    metrics["op_traced_mean_s"] = statistics.mean(traced)
    return metrics
