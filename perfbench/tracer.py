"""Outside-in spans around calls into tsadeval's modules.

The tracer replaces public functions at the place where each caller looks
them up (``tsadeval.cli.load_frame``, ``tsadeval.pca_baseline.score``, ...)
with wrappers that record a span: group, parent span, start, end, and the
amount of work the call did (rows, points, segments, bytes). Nothing under
``src/`` changes, and the originals are put back by ``uninstall``. Spans
stay in compact arrays in memory and are written once, by ``save``.

Working out a call's amount (counting the distinct scores a sweep was
given, the lines of a CSV just written) is the tracer's own bookkeeping,
done after the call's span has ended. Its time is booked against every
span still open, and ``layer_metrics`` takes it out of their durations;
``bookkeeping_s`` totals it so that traced operations can leave it out too.

A span group names the layer and the job, such as ``data_io.read``. No
group's function calls another function of the same group, so summing a
group's durations counts no time twice.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np

from tsadeval.protocols import Protocol

PROTOCOL_GROUPS = tuple("protocols." + p.value for p in Protocol)


def _rows(args, kwargs, result):
    return len(result), 0


def _frame_rows(args, kwargs, result):
    return result.n_points, 0


def _path_arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _written_csv(args, kwargs, result):
    path = _path_arg(args, kwargs, 0, "path")
    with open(path, "rb") as fh:
        lines = fh.read().count(b"\n")
    return lines - 1, os.path.getsize(path)


def _written_frame(args, kwargs, result):
    path = _path_arg(args, kwargs, 1, "path")
    return _path_arg(args, kwargs, 0, "frame").n_points, os.path.getsize(path)


def _written_events(args, kwargs, result):
    path = _path_arg(args, kwargs, 1, "path")
    return len(_path_arg(args, kwargs, 0, "events")), os.path.getsize(path)


def _written_text(args, kwargs, result):
    return 0, os.path.getsize(_path_arg(args, kwargs, 0, "path"))


def _hashed(args, kwargs, result):
    return 0, os.path.getsize(_path_arg(args, kwargs, 0, "path"))


def _candidates(args, kwargs, result):
    scores = _path_arg(args, kwargs, 0, "scores").scores
    return int(np.unique(scores).size) + 1, 0


def _labels_len(args, kwargs, result):
    return len(_path_arg(args, kwargs, 0, "labels")), 0


# (module, attribute, group, amount) for every binding the tracer replaces;
# amount, when given, returns (rows or points or segments, bytes) of a call.
# "protocols.score" resolves to one group per protocol at call time.
BINDINGS = (
    ("tsadeval.cli", "main", "cli.main", None),
    ("tsadeval.cli", "load_label_series", "data_io.read", _rows),
    ("tsadeval.cli", "load_prediction_series", "data_io.read", _rows),
    ("tsadeval.cli", "load_score_series", "data_io.read", _rows),
    ("tsadeval.cli", "load_frame", "data_io.read", _frame_rows),
    ("tsadeval.cli", "load_events", "data_io.read", _rows),
    ("tsadeval.cli", "load_synthetic_spec", "data_io.read", None),
    ("tsadeval.cli", "write_csv", "data_io.write", _written_csv),
    ("tsadeval.cli", "write_frame", "data_io.write", _written_frame),
    ("tsadeval.cli", "write_events", "data_io.write", _written_events),
    ("tsadeval.cli", "atomic_write_text", "data_io.write", _written_text),
    ("tsadeval.cli", "sha256_digest", "data_io.hash", _hashed),
    ("tsadeval.cli", "generate_train_test", "data_io.generate", None),
    ("tsadeval.cli", "generate_synthetic", "data_io.generate", None),
    ("tsadeval.data_io", "synthetic_labels", "data_io.generate", None),
    ("tsadeval.cli", "fit", "pca_baseline.fit", None),
    ("tsadeval.cli", "score_frame", "pca_baseline.score_frame", None),
    ("tsadeval.cli", "sweep_threshold", "pca_baseline.sweep", _candidates),
    ("tsadeval.cli", "predictions_at_threshold", "pca_baseline.binarize", None),
    ("tsadeval.pca_baseline", "predictions_at_threshold", "pca_baseline.binarize", None),
    ("tsadeval.pca_baseline", "score", "protocols.score", _labels_len),
    ("tsadeval.protocols", "score", "protocols.score", _labels_len),
    ("tsadeval.adversary", "score", "protocols.score", _labels_len),
    ("tsadeval.protocols", "point_confusion", "metrics.point_confusion", None),
    ("tsadeval.adversary", "point_confusion", "metrics.point_confusion", None),
    ("tsadeval.metrics", "as_binary_array", "metrics.validate", _rows),
    ("tsadeval.metrics", "segmentize", "metrics.segmentize", _rows),
    ("tsadeval.data_io", "segmentize", "metrics.segmentize", _rows),
    ("tsadeval.cli", "random_flag_trials", "adversary.trials", None),
    ("tsadeval.adversary", "run_attack", "adversary.draw", None),
)

GROUPS = tuple(
    dict.fromkeys(g for _, _, g, _ in BINDINGS if g != "protocols.score")
) + PROTOCOL_GROUPS


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.code = {name: i for i, name in enumerate(GROUPS)}
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.nbytes = array("q")
        self.cpu = array("d")
        self.booked = array("d")
        self._bookkeeping = array("d", [0.0])
        self._stack = [-1]
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, group, amount in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, group, amount))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, group: str, amount):
        if group == "protocols.score":
            by_protocol = {
                p: self.code["protocols." + p.value] for p in Protocol
            }

            def code_of(args, kwargs):
                # a str-valued Protocol and its spelling hash alike
                return by_protocol[args[2] if len(args) > 2 else kwargs["protocol"]]

        else:
            fixed = self.code[group]

            def code_of(args, kwargs):
                return fixed

        count_cpu = group.startswith("data_io.")
        clock = time.perf_counter
        # this thread's CPU only: BLAS threads would push CPU above wall time
        cpu_clock = time.thread_time
        stack, spans_group, spans_parent = self._stack, self.group, self.parent
        starts, ends, amounts, nbytes, cpus, booked, bookkeeping = (
            self.start, self.end, self.amount, self.nbytes, self.cpu,
            self.booked, self._bookkeeping,
        )

        def traced(*args, **kwargs):
            idx = len(spans_group)
            spans_group.append(code_of(args, kwargs))
            spans_parent.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0)
            nbytes.append(0)
            cpus.append(0.0)
            booked.append(0.0)
            stack.append(idx)
            cpu_start = cpu_clock() if count_cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if count_cpu:
                    cpus[idx] = cpu_clock() - cpu_start
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if amount is not None:
                amounts[idx], nbytes[idx] = amount(args, kwargs, result)
                spent = clock() - end
                bookkeeping[0] += spent
                for open_span in stack[1:]:
                    booked[open_span] += spent
            return result

        return traced

    @property
    def bookkeeping_s(self) -> float:
        """Total time spent working out amounts since the tracer was made."""
        return self._bookkeeping[0]

    def arrays(self) -> dict:
        return {
            "group": np.frombuffer(self.group, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
            "cpu": np.frombuffer(self.cpu, dtype=np.float64).copy(),
            "booked": np.frombuffer(self.booked, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span recorded so far to one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, groups=np.array(GROUPS), **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics per operation, from the spans of n_ops operations."""
        a = self.arrays()
        group, parent = a["group"], a["parent"]
        duration = a["end"] - a["start"] - a["booked"]
        code = self.code

        def is_group(name):
            return group == code[name]

        def child_of(name):
            owner = np.append(is_group(name), False)  # parent -1 -> False
            return owner[parent]

        def seconds(mask):
            return float(duration[mask].sum()) / n_ops

        def count(mask):
            return int(np.count_nonzero(mask)) / n_ops

        def total(values, mask):
            return int(values[mask].sum()) / n_ops

        read, write = is_group("data_io.read"), is_group("data_io.write")
        hashed = is_group("data_io.hash")
        data_io = read | write | hashed | is_group("data_io.generate")
        scored = np.isin(group, [code[g] for g in PROTOCOL_GROUPS])
        swept = scored & child_of("pca_baseline.sweep")
        validate = is_group("metrics.validate")
        confusion = is_group("metrics.point_confusion")
        segmentize = is_group("metrics.segmentize")
        main = is_group("cli.main")
        metrics = {
            "cli.self_s": seconds(main) - seconds(child_of("cli.main")),
            "data_io.read_s": seconds(read),
            "data_io.rows_read": total(a["amount"], read),
            "data_io.write_s": seconds(write),
            "data_io.rows_written": total(a["amount"], write),
            "data_io.bytes_written": total(a["nbytes"], write),
            "data_io.wait_s": float(
                np.maximum(duration[data_io] - a["cpu"][data_io], 0.0).sum()
            )
            / n_ops,
            "data_io.hash_s": seconds(hashed),
            "data_io.bytes_hashed": total(a["nbytes"], hashed),
            "data_io.generate_s": seconds(is_group("data_io.generate")),
            "pca_baseline.fit_s": seconds(is_group("pca_baseline.fit")),
            "pca_baseline.score_frame_s": seconds(
                is_group("pca_baseline.score_frame")
            ),
            "pca_baseline.sweep_s": seconds(is_group("pca_baseline.sweep")),
            "pca_baseline.binarize_s": seconds(is_group("pca_baseline.binarize")),
            "pca_baseline.sweep_candidates": total(
                a["amount"], is_group("pca_baseline.sweep")
            ),
            "pca_baseline.sweep_score_calls": count(swept),
            "pca_baseline.sweep_point_visits": total(a["amount"], swept),
            "protocols.score_calls": count(scored),
            "protocols.score_s": seconds(scored),
        }
        for name in PROTOCOL_GROUPS:
            metrics[name + "_s"] = seconds(is_group(name))
        metrics.update(
            {
                "metrics.validate_calls": count(validate),
                "metrics.points_validated": total(a["amount"], validate),
                "metrics.validate_s": seconds(validate),
                "metrics.point_confusion_calls": count(confusion),
                "metrics.point_confusion_s": seconds(confusion),
                "metrics.segmentize_calls": count(segmentize),
                "metrics.segments_built": total(a["amount"], segmentize),
                "metrics.segmentize_s": seconds(segmentize),
                "adversary.trials": count(is_group("adversary.draw")),
                "adversary.trials_s": seconds(is_group("adversary.trials")),
                "adversary.draw_s": seconds(is_group("adversary.draw")),
            }
        )
        return metrics
