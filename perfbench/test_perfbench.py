"""Tests of the benchmark itself: its oracle, its metrics, and known defects
of the program that the benchmark's inputs must not hide."""

import contextlib
import io
import json
import math
from math import comb

import numpy as np
import pytest

from perfbench.harness import ROOT, run_workload
from perfbench.oracle import (
    attack_f1,
    best_point_wise_f1,
    point_wise_f1_at,
    prob_zero_hits,
)
from perfbench.workloads import (
    WORKLOADS,
    AttackMix,
    BaselinePipeline,
    Sizes,
)
from tsadeval.adversary import run_attack, trial_seed
from tsadeval.cli import main
from tsadeval.metrics import LabelSeries
from tsadeval.pca_baseline import AnomalyScoreSeries, sweep_threshold
from tsadeval.protocols import Protocol, score

TINY = Sizes(
    sweep_points=2000,
    sweep_events=5,
    attack_trials=10,
    pipeline_train_points=5000,
    setup_reps=1,
)


def _random_cases():
    rng = np.random.default_rng(20261017)
    for i in range(300):
        n = int(rng.integers(1, 60))
        scores = rng.random(n)
        if i % 2:
            scores = scores.round(1)  # many tied scores
        labels = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(np.int8)
        yield scores, labels


EDGE_CASES = {
    "length-1-anomalous": ([0.4], [1]),
    "length-1-normal": ([0.4], [0]),
    "no-events": ([0.1, 0.7, 0.3, 0.9], [0, 0, 0, 0]),
    "all-anomalous": ([0.1, 0.7, 0.3, 0.9], [1, 1, 1, 1]),
    "all-tied": ([0.5] * 6, [0, 1, 1, 0, 0, 1]),
    "zero-scores": ([0.0, 0.0, 2.0, 0.0], [1, 0, 1, 0]),
}


def _assert_oracle_matches_sweep(scores, labels):
    threshold, report = sweep_threshold(
        AnomalyScoreSeries(np.asarray(scores, dtype=float)),
        LabelSeries(np.asarray(labels, dtype=np.int8)),
        Protocol.POINT_WISE,
    )
    best = best_point_wise_f1(scores, labels)
    assert report.f1 == pytest.approx(best, abs=1e-12)
    assert point_wise_f1_at(scores, labels, threshold) == pytest.approx(
        best, abs=1e-12
    )


@pytest.mark.filterwarnings("ignore:false_alarm_rate over")
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_oracle_equals_sweep_on_edge_shapes(case):
    _assert_oracle_matches_sweep(*EDGE_CASES[case])


@pytest.mark.filterwarnings("ignore:false_alarm_rate over")
def test_oracle_equals_sweep_on_random_series():
    for scores, labels in _random_cases():
        _assert_oracle_matches_sweep(scores, labels)


@pytest.mark.filterwarnings("ignore:false_alarm_rate over")
def test_attack_oracle_equals_score_on_random_layouts():
    rng = np.random.default_rng(20261018)
    for case in range(200):
        n = int(rng.integers(1, 80))
        labels = LabelSeries(
            (rng.random(n) < rng.uniform(0.0, 0.7)).astype(np.int8)
        )
        starts = np.array([e.start for e in labels.events], dtype=np.int64)
        ends = np.array([e.end for e in labels.events], dtype=np.int64)
        alpha = int(rng.integers(0, n + 1))
        preds = [run_attack(labels, alpha, trial_seed(case, i)) for i in range(4)]
        alarms = np.array([np.flatnonzero(p.values) for p in preds])
        got = attack_f1(starts, ends, n, alarms.reshape(len(preds), alpha))
        for protocol in Protocol:
            expected = [score(labels, p, protocol).f1 for p in preds]
            np.testing.assert_allclose(
                got[protocol.value], expected, rtol=0, atol=1e-12
            )


@pytest.mark.parametrize(
    "total,anomalous,alpha", [(10, 3, 7), (10, 3, 8), (40, 5, 6)]
)
def test_prob_zero_hits_is_exact(total, anomalous, alpha):
    expected = comb(total - anomalous, alpha) / comb(total, alpha)
    assert prob_zero_hits(total, anomalous, alpha) == pytest.approx(
        expected, rel=1e-12, abs=1e-300
    )


def test_attack_check_rejects_wrong_summaries(tmp_path):
    workload = AttackMix(TINY, 5, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(workload.commands[0]) == 0
    assert workload.check() is None
    report_path = workload.out / "report.json"
    original = report_path.read_text()

    def mutated(protocol, key, change):
        report = json.loads(original)
        stats = report["results"]["f1_summary"][protocol]
        stats[key] = change(stats[key])
        report_path.write_text(json.dumps(report))
        return workload.check()

    # a saturated point-adjust score, a composite far off, one trial missing
    assert mutated("point-adjust", "mean", lambda v: 1.0)
    assert mutated("point-adjust", "max", lambda v: 1.5)
    assert mutated("composite", "mean", lambda v: v * 1.5)
    assert mutated("point-wise", "mean", lambda v: v * 9 / 10)
    report = json.loads(original)
    report["results"]["empirical_prob_zero_hits"] = 0.1
    report_path.write_text(json.dumps(report))
    assert workload.check()


def test_pipeline_check_recomputes_every_row(tmp_path):
    # at full size on this seed the best point-wise threshold leaves many
    # false segments, so event-wise F1 is low (0.47) and still correct
    workload = BaselinePipeline(Sizes(), 1992354577, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload.commands:
            assert main(argv) == 0
    assert workload.check() is None
    report_path = workload.out / "report.json"
    original = report_path.read_text()
    for protocol in ("point-adjust", "composite", "event-wise"):
        report = json.loads(original)
        rows = report["results"]["rows"]
        (row,) = [r for r in rows if r["protocol"] == protocol]
        row["f1"] -= 1e-9
        report_path.write_text(json.dumps(report))
        assert workload.check(), protocol


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    run = run_workload(workload, seed=3, seconds=0, trace=bool(trace), sizes=TINY)
    result = run["result"]
    assert run["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    printed = {name for name, _, _ in run["table"]}
    assert set(result["metrics"]) <= printed
    if not trace:
        assert "error_rate" in printed


def _write_column(path, header, values):
    path.write_text(header + "\n" + "\n".join(map(repr, values)) + "\n")


@pytest.mark.xfail(
    strict=True,
    reason="evaluate --scores exits 2 on negative (log-likelihood style) scores",
)
def test_evaluate_accepts_signed_scores(tmp_path):
    labels = [0, 0, 1, 1, 0, 1]
    scores = [-3.5, -1.25, 2.0, 0.5, -2.0, -0.75]
    _write_column(tmp_path / "labels.csv", "label", labels)
    _write_column(tmp_path / "scores.csv", "score", scores)
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--labels", str(tmp_path / "labels.csv"),
         "--scores", str(tmp_path / "scores.csv"), "--out", str(out)]
    )
    assert code == 0
    threshold = json.loads((out / "report.json").read_text())["results"][
        "threshold"
    ]
    assert point_wise_f1_at(scores, labels, threshold) == pytest.approx(
        best_point_wise_f1(scores, labels), abs=1e-12
    )


@pytest.mark.xfail(
    strict=True,
    reason="report.json records sys.argv instead of the argv given to main()",
)
def test_report_records_the_argv_given_to_main(tmp_path):
    argv = [
        "attack", "--total-points", "200", "--segment-length", "20",
        "--alpha", "5", "--trials", "3", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
    assert manifest["argv"] == argv
