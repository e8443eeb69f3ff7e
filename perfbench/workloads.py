"""The three workloads: their inputs, their commands and their output checks.

Inputs come from the seed alone and from benchmark code alone, so a change
to the program cannot change what it is asked to do. Each check is owned
here and shares no code with tsadeval: the best point-wise F1, every
protocol's F1 at the reported threshold and the attack's expected F1
distribution come from ``perfbench.oracle``, and the attack's bounds on top
are those of acceptance criterion 05.

The pipeline's event-wise F1 floor separates a working detector from one
blind to the signal. It was fixed from 800 seeds drawn from [0, 2**31)
with ``random.Random(7)``, none used while building: their lowest F1 was
0.36 and 1% fell below 0.6, since the best point-wise threshold sometimes
leaves many short false segments. Uniform random scores on the same
layout reach at most 0.003 over 200 draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench.oracle import (
    attack_f1,
    best_point_wise_f1,
    point_wise_f1_at,
    prob_zero_hits,
)

F1_TOLERANCE = 1e-12
ATTACK_MIN_MEAN_POINT_ADJUST_F1 = 0.90
ATTACK_MAX_MEAN_EVENT_WISE_F1 = 0.05
ATTACK_EVENT_LENGTHS = (100,) * 17 + (450,) * 17 + (44_650,)
ATTACK_POINTS = 450_000
ATTACK_ALPHA = 1000
PROTOCOLS = ("point-wise", "point-adjust", "composite", "event-wise")
# trials of the benchmark's own attack, run once per run to fix the
# expected F1 distribution; and how many standard errors a mean may be off
ATTACK_REFERENCE_TRIALS = 2000
ATTACK_STANDARD_ERRORS = 6.0
PIPELINE_EVENT_WISE_F1_FLOOR = 0.05
PIPELINE_TEST_POINTS = 8000
PIPELINE_CHANNELS = 8
PIPELINE_EVENT_LENGTHS = (60, 90, 120, 150, 200)


@dataclass(frozen=True)
class Sizes:
    """Sizes of one run; the defaults are the benchmark's definitions."""

    sweep_points: int = 50_000
    sweep_events: int = 25
    attack_trials: int = 100
    pipeline_train_points: int = 100_000
    setup_reps: int = 4


def _write_column(path: Path, header: str, values) -> None:
    path.write_text(header + "\n" + "\n".join(values) + "\n")


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["results"]


def _point_wise_row(results: dict) -> dict:
    (row,) = [r for r in results["rows"] if r["protocol"] == "point-wise"]
    return row


def _check_best_threshold(
    results: dict, scores: np.ndarray, labels: np.ndarray
) -> Optional[str]:
    """The reported point-wise F1 and threshold reach the oracle's best F1."""
    best = best_point_wise_f1(scores, labels)
    f1 = _point_wise_row(results)["f1"]
    if abs(f1 - best) > F1_TOLERANCE:
        return f"point-wise F1 {f1!r} differs from the oracle's {best!r}"
    reached = point_wise_f1_at(scores, labels, results["threshold"])
    if abs(reached - best) > F1_TOLERANCE:
        return (
            f"threshold {results['threshold']!r} gives F1 {reached!r}, "
            f"not the oracle's {best!r}"
        )
    return _check_rows(results, scores, labels)


def _check_rows(
    results: dict, scores: np.ndarray, labels: np.ndarray
) -> Optional[str]:
    """Every protocol's reported F1 is the oracle's at the reported threshold."""
    positive = np.flatnonzero(np.asarray(labels) != 0)
    breaks = np.flatnonzero(np.diff(positive) != 1)
    starts = np.concatenate((positive[:1], positive[breaks + 1]))
    ends = np.concatenate((positive[breaks], positive[-1:]))
    alarms = np.flatnonzero(np.asarray(scores) >= results["threshold"])
    expected = attack_f1(starts, ends, len(scores), alarms[None, :])
    reported = {r["protocol"]: r["f1"] for r in results["rows"]}
    if sorted(reported) != sorted(PROTOCOLS):
        return f"report rows have protocols {sorted(reported)}"
    for name, f1 in reported.items():
        if abs(f1 - float(expected[name][0])) > F1_TOLERANCE:
            return (
                f"{name} F1 {f1!r} differs from the oracle's "
                f"{float(expected[name][0])!r} at the reported threshold"
            )
    return None


class EvaluateSweep:
    """``evaluate --scores`` with the default best-pw-f1 sweep."""

    name = "evaluate-sweep"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng((seed, 1))
        n = sizes.sweep_points
        lengths = rng.integers(60, 141, size=sizes.sweep_events)
        gap = 10
        slack = n - int(lengths.sum()) - gap * (lengths.size - 1)
        cuts = np.sort(rng.integers(0, slack + 1, size=lengths.size))
        lead = np.diff(cuts, prepend=0)
        labels = np.zeros(n, dtype=np.int8)
        cursor = 0
        for pad, length in zip(lead, lengths):
            cursor += int(pad)
            labels[cursor : cursor + length] = 1
            cursor += int(length) + gap
        # reconstruction-error style: non-negative, higher inside events,
        # and overlapping enough that the best threshold is not trivial
        scores = rng.gamma(2.0, 1.0, size=n) + 2.5 * labels
        while np.unique(scores).size != n:
            scores = rng.gamma(2.0, 1.0, size=n) + 2.5 * labels
        self.labels, self.scores = labels, scores
        self.out = workdir / "out"
        label_path, score_path = workdir / "labels.csv", workdir / "scores.csv"
        _write_column(label_path, "label", map(str, labels.tolist()))
        _write_column(score_path, "score", map(repr, scores.tolist()))
        self.commands = [
            ["evaluate", "--labels", str(label_path), "--scores",
             str(score_path), "--out", str(self.out)],
        ]
        self.points = n
        self.throughput = {}

    def check(self) -> Optional[str]:
        return _check_best_threshold(_report(self.out), self.scores, self.labels)


def _attack_reference(seed: int) -> dict:
    """Mean and spread of each protocol's F1 under the benchmark's own attack.

    The events lie at fixed, evenly spaced positions chosen here. With
    uniform alarms the F1 distributions depend on the series length and the
    event lengths alone, up to alarms that touch an event's edge, which
    move a mean by far less than the tolerance.
    """
    lengths = np.array(ATTACK_EVENT_LENGTHS, dtype=np.int64)
    gap = (ATTACK_POINTS - int(lengths.sum())) // (lengths.size + 1)
    starts = gap * np.arange(1, lengths.size + 1) + np.cumsum(lengths) - lengths
    ends = starts + lengths - 1
    rng = np.random.default_rng((seed, 2))
    f1 = {p: [] for p in PROTOCOLS}
    block = 100  # trials scored at once, to keep the arrays small
    for _ in range(ATTACK_REFERENCE_TRIALS // block):
        alarms = np.stack(
            [rng.choice(ATTACK_POINTS, ATTACK_ALPHA, replace=False)
             for _ in range(block)]
        )
        per_trial = attack_f1(starts, ends, ATTACK_POINTS, alarms)
        for p in PROTOCOLS:
            f1[p].append(per_trial[p])
    return {
        p: (float(np.mean(v)), float(np.std(v)))
        for p, v in ((p, np.concatenate(f1[p])) for p in PROTOCOLS)
    }


def _summary_problem(name: str, stats: dict) -> Optional[str]:
    """The reported statistics of one protocol are ordered and inside [0, 1]."""
    order = ("min", "q05", "q25", "median", "q75", "q95", "max")
    values = [stats[k] for k in order]
    if not (0.0 <= values[0] and values[-1] <= 1.0):
        return f"{name} F1 outside [0, 1]: {stats}"
    if values != sorted(values) or not stats["min"] <= stats["mean"] <= stats["max"]:
        return f"{name} F1 statistics out of order: {stats}"
    if stats["std"] < 0.0:
        return f"{name} F1 std is negative"
    return None


class AttackMix:
    """``attack --synthetic-spec`` on the criterion-05 event mix."""

    name = "attack-mix"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        spec_path = workdir / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "total_points": ATTACK_POINTS,
                    "event_lengths": list(ATTACK_EVENT_LENGTHS),
                    "n_channels": 1,
                    "anomaly_signal": "mean-shift",
                    "seed": seed,
                }
            )
        )
        self.trials = sizes.attack_trials
        self.reference = _attack_reference(seed)
        self.out = workdir / "out"
        self.commands = [
            ["attack", "--synthetic-spec", str(spec_path),
             "--alpha", str(ATTACK_ALPHA),
             "--trials", str(self.trials),
             "--seed", str(seed), "--out", str(self.out)],
        ]
        self.points = ATTACK_POINTS
        self.throughput = {"trials_per_s": ("trials/s", self.trials)}

    def check(self) -> Optional[str]:
        """Labels as specified, every protocol's F1 as a random flagger gets.

        Each mean must lie within ATTACK_STANDARD_ERRORS standard errors of
        the benchmark's own attack. Point-wise F1 is 2 hits / (alpha +
        anomalous points), so its minimum, maximum and sum over the trials
        must be whole numbers of hits: a run of fewer trials fails that.
        The criterion-05 bounds hold on top.
        """
        results = _report(self.out)
        anomalous = sum(ATTACK_EVENT_LENGTHS)
        expected = {
            "total_points": ATTACK_POINTS,
            "n_events": len(ATTACK_EVENT_LENGTHS),
            "n_anomalous": anomalous,
        }
        for key, value in expected.items():
            if results["labels"][key] != value:
                return f"labels {key} is {results['labels'][key]}, not {value}"
        summary = results["f1_summary"]
        if sorted(summary) != sorted(PROTOCOLS):
            return f"f1_summary has protocols {sorted(summary)}"
        for name in PROTOCOLS:
            stats = summary[name]
            problem = _summary_problem(name, stats)
            if problem:
                return problem
            mean, std = self.reference[name]
            tolerance = ATTACK_STANDARD_ERRORS * std * math.sqrt(
                1.0 / self.trials + 1.0 / ATTACK_REFERENCE_TRIALS
            )
            if abs(stats["mean"] - mean) > tolerance:
                return (
                    f"mean {name} F1 {stats['mean']!r} is not within "
                    f"{tolerance:.3g} of the expected {mean!r}"
                )
        half = (ATTACK_ALPHA + anomalous) / 2.0
        point_wise = summary["point-wise"]
        for value in (point_wise["min"], point_wise["max"],
                      point_wise["mean"] * self.trials):
            if abs(value * half - round(value * half)) > 1e-6:
                return f"point-wise F1 {value!r} is not a whole number of hits"
        p_zero = prob_zero_hits(ATTACK_POINTS, anomalous, ATTACK_ALPHA)
        zero_tolerance = ATTACK_STANDARD_ERRORS * math.sqrt(
            p_zero * (1.0 - p_zero) / self.trials
        )
        if abs(results["empirical_prob_zero_hits"] - p_zero) > zero_tolerance:
            return (
                f"empirical_prob_zero_hits {results['empirical_prob_zero_hits']!r}"
                f" is far from the exact {p_zero!r}"
            )
        if summary["point-adjust"]["mean"] < ATTACK_MIN_MEAN_POINT_ADJUST_F1:
            return "mean point-adjust F1 below 0.90"
        if summary["event-wise"]["mean"] > ATTACK_MAX_MEAN_EVENT_WISE_F1:
            return "mean event-wise F1 above 0.05"
        return None


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class BaselinePipeline:
    """``synth`` of a train/test pair, then ``baseline`` on the written frames."""

    name = "baseline-pipeline"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        spec_path = workdir / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "total_points": PIPELINE_TEST_POINTS,
                    "event_lengths": list(PIPELINE_EVENT_LENGTHS),
                    "n_channels": PIPELINE_CHANNELS,
                    "anomaly_signal": "mean-shift",
                    "seed": seed,
                }
            )
        )
        self.test = workdir / "test.csv"
        self.events = workdir / "events.csv"
        self.out = workdir / "out"
        train = workdir / "train.csv"
        self.commands = [
            ["synth", "--spec", str(spec_path), "--out-file", str(self.test),
             "--train-points", str(sizes.pipeline_train_points),
             "--train-out", str(train), "--events-out", str(self.events)],
            ["baseline", "--train", str(train), "--test", str(self.test),
             "--out", str(self.out)],
        ]
        self.points = PIPELINE_TEST_POINTS
        rows = sizes.pipeline_train_points + PIPELINE_TEST_POINTS
        self.throughput = {"rows_per_s": ("rows/s", rows)}

    def check(self) -> Optional[str]:
        sidecar = self.test.with_name(self.test.name + ".manifest.json")
        outputs = json.loads(sidecar.read_text())["outputs"]
        if len(outputs) != 3:
            return f"sidecar lists {len(outputs)} outputs, not 3"
        for path, digest in outputs.items():
            if _sha256(path) != digest:
                return f"sidecar digest of {path} does not match the file"
        with open(self.events, newline="") as fh:
            lengths = tuple(
                int(row["end"]) - int(row["start"]) + 1
                for row in csv.DictReader(fh)
            )
        if lengths != PIPELINE_EVENT_LENGTHS:
            return f"test event lengths {lengths} differ from the spec"
        with open(self.test, newline="") as fh:
            labels = np.array([int(row["label"]) for row in csv.DictReader(fh)])
        with open(self.out / "scores.csv", newline="") as fh:
            scores = np.array([float(row["score"]) for row in csv.DictReader(fh)])
        results = _report(self.out)
        problem = _check_best_threshold(results, scores, labels)
        if problem:
            return problem
        (event_wise,) = [
            r["f1"] for r in results["rows"] if r["protocol"] == "event-wise"
        ]
        if event_wise < PIPELINE_EVENT_WISE_F1_FLOOR:
            return f"event-wise F1 {event_wise!r} below the floor"
        return None


WORKLOADS = {w.name: w for w in (EvaluateSweep, AttackMix, BaselinePipeline)}
