"""Acceptance suite: one test per shipped guarantee, at stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Expected values are either closed-form constants, independently
recomputed oracles (plain math.comb arithmetic, no scipy), or regression
constants recorded from the first verified run of a pinned pipeline.
"""

import math
import time
import warnings

import numpy as np
import pytest

from tsadeval.adversary import (
    AttackSetup,
    SamplingModel,
    f1_pa_distribution,
    monte_carlo_f1_pa,
    prob_perfect_recall,
    random_flag_trials,
    worst_case_f1_pa,
)
from tsadeval.data_io import (
    AnomalySignal,
    SyntheticSpec,
    check_label_consistency,
    generate_train_test,
    labels_from_events,
    synthetic_labels,
)
from tsadeval.metric_study import DatasetShape, default_far_grid, f1_far_table
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.pca_baseline import (
    AnomalyScoreSeries,
    PcaConfig,
    ScoredModel,
    fit,
    predictions_at_threshold,
    score_frame,
    sweep_threshold,
)
from tsadeval.protocols import (
    Protocol,
    point_adjust,
    score,
    score_all,
    score_composite,
    score_event_wise,
    score_point_adjust,
    score_point_wise,
)


def hyper_pmf_zero(total, marked, draws):
    """Oracle: P(no draw lands on a marked point), exact integer arithmetic."""
    return math.comb(total - marked, draws) / math.comb(total, draws)


def test_criterion_01_perfect_recall_closed_form():
    assert prob_perfect_recall(0.1, 5) == pytest.approx(0.40951, abs=1e-9)
    # value of 1 - 0.9**26, printed elsewhere rounded to 0.935
    value = prob_perfect_recall(0.1, 26)
    assert value == pytest.approx(0.9353891811077333, abs=1e-9)
    assert round(value, 3) == 0.935


def test_criterion_02_worst_case_adjusted_f1():
    assert worst_case_f1_pa(50, 26) == 0.8
    assert worst_case_f1_pa(500, 50) == pytest.approx(1000 / 1049, abs=1e-9)


def test_criterion_03_bernoulli_prob_of_zero():
    small = f1_pa_distribution(
        AttackSetup(500, 50, 5), SamplingModel.BERNOULLI_APPROX
    )
    assert small.prob_zero == pytest.approx(0.59049, abs=1e-9)
    large = f1_pa_distribution(
        AttackSetup(5000, 500, 50), SamplingModel.BERNOULLI_APPROX
    )
    assert large.prob_zero == pytest.approx(0.00515, abs=1e-5)


@pytest.mark.parametrize(
    "total,marked,draws,seed",
    [(500, 50, 5, 2026), (5000, 500, 50, 2027)],
    ids=["T500", "T5000"],
)
def test_criterion_04_monte_carlo_matches_exact_model(
    total, marked, draws, seed
):
    trials = 200_000
    setup = AttackSetup(total, marked, draws)
    exact = hyper_pmf_zero(total, marked, draws)
    analytic = f1_pa_distribution(setup, SamplingModel.EXACT_HYPERGEOMETRIC)
    assert analytic.prob_zero == pytest.approx(exact, abs=1e-12)
    empirical = monte_carlo_f1_pa(setup, trials=trials, seed=seed)
    standard_error = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(empirical.prob_zero - exact) < 3.0 * standard_error


def test_criterion_05_realistic_event_mix_under_attack():
    started = time.monotonic()
    spec = SyntheticSpec(
        total_points=450_000,
        event_lengths=tuple([100] * 17 + [450] * 17 + [44_650]),
        n_channels=1,
        anomaly_signal=AnomalySignal.MEAN_SHIFT,
        seed=20260816,
    )
    labels = synthetic_labels(spec)
    assert labels.n_events == 35
    assert labels.contamination_rate == pytest.approx(0.12, abs=1e-9)
    trials = random_flag_trials(
        labels,
        alpha=1000,
        trials=100,
        seed=0,
        protocols=(Protocol.POINT_ADJUST, Protocol.EVENT_WISE),
    )
    mean_adjusted = trials.mean_f1(Protocol.POINT_ADJUST)
    mean_event_wise = trials.mean_f1(Protocol.EVENT_WISE)
    elapsed = time.monotonic() - started
    assert mean_adjusted >= 0.90
    assert mean_event_wise <= 0.05
    assert elapsed < 60.0


def test_criterion_06_protocol_invariants_on_random_pairs():
    rng = np.random.default_rng(20260816)
    warnings.filterwarnings("ignore", message="false_alarm_rate over")
    for i in range(1000):
        n = int(rng.integers(1, 2001))
        if i % 100 == 0:
            label_values = np.zeros(n, dtype=np.int8)
        elif i % 100 == 50:
            label_values = np.ones(n, dtype=np.int8)
        else:
            label_values = (rng.random(n) < rng.uniform(0.0, 0.35)).astype(
                np.int8
            )
        pred_values = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(np.int8)
        labels = LabelSeries(label_values)
        preds = PredictionSeries(pred_values)

        assert (
            score_point_adjust(labels, preds).f1
            >= score_point_wise(labels, preds).f1 - 1e-12
        )
        once = point_adjust(labels, preds)
        assert np.array_equal(once.values, point_adjust(labels, once).values)
        assert (
            score_composite(labels, preds).recall
            == score_event_wise(labels, preds).recall
        )
        if labels.n_events > 0:
            perfect = PredictionSeries(labels.values.copy())
            for report in score_all(labels, perfect):
                assert report.f1 == pytest.approx(1.0, abs=1e-12)
        if labels.n_normal > 0:
            all_positive = PredictionSeries(np.ones(n, dtype=np.int8))
            assert score_event_wise(labels, all_positive).f1 == 0.0


def test_criterion_07_f1_far_grid():
    shapes = (
        DatasetShape(10_000, 5_000),
        DatasetShape(10_000, 1_000),
        DatasetShape(10_000, 100),
    )
    grid = default_far_grid()
    assert grid.shape == (50,)
    assert grid[0] == pytest.approx(0.001, abs=1e-15)
    assert grid[-1] == pytest.approx(0.2, abs=1e-15)
    table = f1_far_table(0.99, grid, shapes)
    assert np.all(table[:, 0] > table[:, 1])
    assert np.all(table[:, 1] > table[:, 2])
    cell = f1_far_table(0.99, np.array([0.01]), shapes)[0, 1]
    assert cell == pytest.approx(0.947368, abs=1e-6)


def test_criterion_08_worked_example_regression():
    labels = LabelSeries([0, 0, 0, 1, 1, 1, 1, 1, 0, 0])
    preds = PredictionSeries([0, 0, 0, 0, 0, 1, 0, 0, 0, 1])
    assert score(labels, preds, Protocol.POINT_WISE).f1 == pytest.approx(
        0.285714, abs=1e-6
    )
    assert score(labels, preds, Protocol.POINT_ADJUST).f1 == pytest.approx(
        0.909091, abs=1e-6
    )
    assert score(labels, preds, Protocol.COMPOSITE).f1 == pytest.approx(
        0.666667, abs=1e-6
    )
    assert score(labels, preds, Protocol.EVENT_WISE).f1 == pytest.approx(
        0.571429, abs=1e-6
    )


# Recorded from the first verified run of the exact pipeline below
# (spec seed 20260816, train_points 6000, default PcaConfig, threshold
# swept for point-wise F1, scored event-wise).
PINNED_MEANSHIFT_F1E = 0.907812789048529


def test_criterion_09_pca_baseline_guarantees(tmp_path):
    # full-rank model reconstructs its own training data exactly
    rng = np.random.default_rng(1)
    from tsadeval.data_io import MvtsFrame

    factors = rng.standard_normal((600, 3)) @ rng.standard_normal((3, 7))
    train_frame = MvtsFrame(
        values=factors + 0.05 * rng.standard_normal((600, 7))
    )
    full = fit(train_frame, PcaConfig(variance_target=1.0, smooth_window=1))
    assert full.n_components == 7
    assert score_frame(full, train_frame).scores.max() <= 1e-8

    # persistence round-trips bit-exactly
    model = fit(train_frame)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = ScoredModel.load(path)
    for name in ("center", "spread", "clip_low", "clip_high", "mean", "basis"):
        assert np.array_equal(getattr(model, name), getattr(loaded, name))
    assert loaded.smooth_window == model.smooth_window

    # the sweep maximum equals the brute-force maximum on random series
    protocols = tuple(Protocol)
    for i in range(100):
        n = int(rng.integers(4, 120))
        series = AnomalyScoreSeries(rng.random(n).round(3))
        labels = LabelSeries((rng.random(n) < 0.3).astype(np.int8))
        protocol = protocols[i % len(protocols)]
        _, best = sweep_threshold(series, labels, protocol)
        brute = max(
            score(
                labels, predictions_at_threshold(series, float(t)), protocol
            ).f1
            for t in np.concatenate((np.unique(series.scores), [np.inf]))
        )
        assert best.f1 == pytest.approx(brute, abs=1e-12)

    # pinned regression of the full synthetic pipeline
    spec = SyntheticSpec(
        total_points=8000,
        event_lengths=(60, 90, 120, 150, 200),
        n_channels=8,
        anomaly_signal=AnomalySignal.MEAN_SHIFT,
        seed=20260816,
    )
    train, test = generate_train_test(spec, train_points=6000)
    pipeline_model = fit(train)
    series = score_frame(pipeline_model, test)
    threshold, _ = sweep_threshold(series, test.labels, Protocol.POINT_WISE)
    report = score(
        test.labels,
        predictions_at_threshold(series, threshold),
        Protocol.EVENT_WISE,
    )
    assert report.f1 == pytest.approx(PINNED_MEANSHIFT_F1E, abs=0.01)


def test_criterion_10_event_round_trip_and_consistency():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        values = (rng.random(n) < rng.uniform(0.0, 0.5)).astype(np.int8)
        labels = LabelSeries(values)
        bounds = np.column_stack((labels.starts, labels.ends))
        rebuilt = labels_from_events(bounds, n)
        assert rebuilt == labels
        report = check_label_consistency(labels, rebuilt)
        assert report.is_consistent
        assert report.runs == ()
