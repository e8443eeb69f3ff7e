"""The one range check: every library bound is checked by
metrics._check_range, which words each violation one way and refuses NaN
and non-numbers. Every count of points, alarms, hits, windows or trials
goes through metrics._check_count, which also refuses a non-integer."""

import math
import re

import numpy as np
import pytest

from tsadeval import adversary
from tsadeval.adversary import (
    AttackSetup,
    f1_pa_for_hits,
    prob_perfect_recall,
    random_flag_trials,
    run_attack,
    single_segment_labels,
    worst_case_f1_pa,
    worst_case_precision_pa,
    worst_case_table,
)
from tsadeval.data_io import (
    AnomalySignal,
    SyntheticSpec,
    generate_train_test,
    labels_from_events,
    place_events,
)
from tsadeval.metric_study import DatasetShape, DetectorSpec, default_far_grid
from tsadeval.metrics import (
    ConfusionCounts,
    Segment,
    _check_count,
    _check_range,
)
from tsadeval.pca_baseline import PcaConfig, ScoredModel
from tsadeval.protocols import Protocol, ProtocolReport

NAN = math.nan
RNG = np.random.default_rng(0)


def spec(**overrides):
    base = dict(
        total_points=200,
        event_lengths=(10,),
        n_channels=2,
        anomaly_signal=AnomalySignal.MEAN_SHIFT,
        seed=1,
    )
    return SyntheticSpec(**{**base, **overrides})


def model(**overrides):
    arrays = dict(
        center=np.zeros(2),
        spread=np.ones(2),
        clip_low=-np.ones(2),
        clip_high=np.ones(2),
        mean=np.zeros(2),
        basis=np.eye(2)[:, :1],
        smooth_window=1,
    )
    return ScoredModel(**{**arrays, **overrides})


# (name the message must start with, a call that passes it NaN)
NAN_CASES = {
    "Segment-start": ("segment start", lambda: Segment(NAN, 5)),
    "ConfusionCounts": ("tp", lambda: ConfusionCounts(NAN, 0, 0, 0)),
    "ProtocolReport": (
        "precision",
        lambda: ProtocolReport(Protocol.POINT_WISE, NAN, 0.5, 0.5, 0.0),
    ),
    "single_segment_labels-total": (
        "total_points", lambda: single_segment_labels(NAN, 5)
    ),
    "single_segment_labels-length": (
        "segment_length", lambda: single_segment_labels(10, NAN)
    ),
    "AttackSetup-total": ("total_points", lambda: AttackSetup(NAN, 5, 2)),
    "AttackSetup-length": (
        "anomalous_length", lambda: AttackSetup(10, NAN, 2)
    ),
    "AttackSetup-alpha": ("alpha", lambda: AttackSetup(10, 5, NAN)),
    "prob_perfect_recall-rate": (
        "contamination_rate", lambda: prob_perfect_recall(NAN, 3)
    ),
    "prob_perfect_recall-alpha": (
        "alpha", lambda: prob_perfect_recall(0.5, NAN)
    ),
    "f1_pa_for_hits-length": (
        "anomalous_length", lambda: f1_pa_for_hits(NAN, 5, 1)
    ),
    "f1_pa_for_hits-alpha": ("alpha", lambda: f1_pa_for_hits(10, NAN, 1)),
    "f1_pa_for_hits-hits": ("hits", lambda: f1_pa_for_hits(10, 5, NAN)),
    "worst_case_precision_pa-length": (
        "anomalous_length", lambda: worst_case_precision_pa(NAN, 5)
    ),
    "worst_case_precision_pa-alpha": (
        "alpha", lambda: worst_case_precision_pa(10, NAN)
    ),
    "_sample": (
        "alpha",
        lambda: adversary._sample(10, NAN, 1, np.random.default_rng(0)),
    ),
    "random_flag_trials": (
        "trials",
        lambda: random_flag_trials(single_segment_labels(10, 2), 2, NAN),
    ),
    "random_flag_trials-seed": (
        "seed",
        lambda: random_flag_trials(single_segment_labels(10, 2), 2, 1, NAN),
    ),
    "PcaConfig-variance": (
        "variance_target", lambda: PcaConfig(variance_target=NAN)
    ),
    "PcaConfig-clip-low": (
        "clip_quantiles[0]", lambda: PcaConfig(clip_quantiles=(NAN, 0.9))
    ),
    "PcaConfig-clip-high": (
        "clip_quantiles[1]", lambda: PcaConfig(clip_quantiles=(0.1, NAN))
    ),
    "PcaConfig-smooth": (
        "smooth_window", lambda: PcaConfig(smooth_window=NAN)
    ),
    "ScoredModel": ("smooth_window", lambda: model(smooth_window=NAN)),
    "DetectorSpec-recall": ("recall", lambda: DetectorSpec(NAN, 0.1)),
    "DetectorSpec-far": ("far", lambda: DetectorSpec(0.5, NAN)),
    "DatasetShape-normal": ("n_normal", lambda: DatasetShape(NAN, 5)),
    "DatasetShape-anomalous": ("n_anomalous", lambda: DatasetShape(5, NAN)),
    "default_far_grid-low": ("low", lambda: default_far_grid(NAN, 0.2)),
    "default_far_grid-high": ("high", lambda: default_far_grid(0.001, NAN)),
    "default_far_grid-points": (
        "points", lambda: default_far_grid(points=NAN)
    ),
    "SyntheticSpec": ("signal_strength", lambda: spec(signal_strength=NAN)),
    "generate_train_test": (
        "train_points", lambda: generate_train_test(spec(), NAN)
    ),
    "labels_from_events": (
        "total_points", lambda: labels_from_events([], NAN)
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_is_out_of_every_range(case):
    name, call = NAN_CASES[case]
    pattern = rf"^{re.escape(name)} must .*, got nan$"
    with pytest.raises(ValueError, match=pattern):
        call()


@pytest.mark.parametrize(
    "args, message",
    [
        ((_check_range, "x", 5, 1, 4), "x must lie in [1, 4], got 5"),
        (
            (_check_range, "x", 0.0, 0, 1, "(]"),
            "x must lie in (0, 1], got 0.0",
        ),
        (
            (_check_range, "x", 1.0, 0, 1, "[)"),
            "x must lie in [0, 1), got 1.0",
        ),
        ((_check_range, "x", -1, 0), "x must be >= 0, got -1"),
        # an open lower end with no upper bound
        ((_check_range, "x", 0, 0, math.inf, "(]"), "x must be > 0, got 0"),
        # an open upper end at infinity leaves infinity out
        (
            (_check_range, "x", math.inf, 0, math.inf, "()"),
            "x must be > 0 and finite, got inf",
        ),
        ((_check_range, "x", NAN, 0), "x must be >= 0, got nan"),
        # a value that is no number is refused before any comparison
        ((_check_range, "x", "a", 0), "x must be a number, got 'a'"),
        ((_check_range, "x", None, 0), "x must be a number, got None"),
        ((_check_range, "x", True, 0), "x must be a number, got True"),
        # a count is checked for integer-ness before its bounds
        ((_check_count, "x", "7", 1), "x must be an integer, got '7'"),
        (
            (random_flag_trials, single_segment_labels(10, 2), 2, 1, -1),
            "seed must be >= 0, got -1",
        ),
    ],
)
def test_one_wording(args, message):
    check, *rest = args
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(*rest)


@pytest.mark.parametrize(
    "strength, message",
    [
        (0.0, "signal_strength must be > 0 and finite, got 0.0"),
        (math.inf, "signal_strength must be > 0 and finite, got inf"),
    ],
)
def test_signal_strength_open_lower_end(strength, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spec(signal_strength=strength)


def test_dependent_bounds_name_the_sibling_value():
    with pytest.raises(ValueError, match=re.escape("in [1, 10], got 11")):
        AttackSetup(10, 5, 11)
    with pytest.raises(ValueError, match=re.escape("(0.5, 1], got 0.2")):
        PcaConfig(clip_quantiles=(0.5, 0.2))
    with pytest.raises(ValueError, match=re.escape("in (0, 0.1), got 0.2")):
        default_far_grid(0.2, 0.1)


# (argument and value the message names, a call that passes it a fractional
# count); each count is in range, so only the integer check can refuse it
FRACTIONAL_CASES = {
    "worst_case_f1_pa": ("alpha", 2.5, lambda: worst_case_f1_pa(10, 2.5)),
    "prob_perfect_recall": (
        "alpha", 2.5, lambda: prob_perfect_recall(0.1, 2.5)
    ),
    "f1_pa_for_hits-length": (
        "anomalous_length", 10.5, lambda: f1_pa_for_hits(10.5, 5, 1)
    ),
    "f1_pa_for_hits-hits": ("hits", 1.5, lambda: f1_pa_for_hits(10, 5, 1.5)),
    "worst_case_precision_pa": (
        "alpha",
        np.float64(2.5),
        lambda: worst_case_precision_pa(10, np.float64(2.5)),
    ),
    "AttackSetup-total": (
        "total_points", 100.5, lambda: AttackSetup(100.5, 10, 2)
    ),
    "AttackSetup-length": (
        "anomalous_length", 10.5, lambda: AttackSetup(100, 10.5, 2)
    ),
    "AttackSetup-alpha": ("alpha", 2.5, lambda: AttackSetup(100, 10, 2.5)),
    "single_segment_labels": (
        "segment_length", 2.5, lambda: single_segment_labels(10, 2.5)
    ),
    "worst_case_table": (
        "alpha", 2.5, lambda: worst_case_table(50, 0.1, [2.5])
    ),
    "random_flag_trials-alpha": (
        "alpha",
        2.5,
        lambda: random_flag_trials(single_segment_labels(100, 10), 2.5, 10),
    ),
    "random_flag_trials-trials": (
        "trials",
        10.5,
        lambda: random_flag_trials(single_segment_labels(100, 10), 2, 10.5),
    ),
    "random_flag_trials-seed": (
        "seed",
        1.5,
        lambda: random_flag_trials(single_segment_labels(100, 10), 2, 10, 1.5),
    ),
    "run_attack": (
        "alpha", 2.5, lambda: run_attack(single_segment_labels(100, 10), 2.5)
    ),
    "_sample": (
        "alpha",
        2.5,
        lambda: adversary._sample(100, 2.5, 1, np.random.default_rng(0)),
    ),
    "labels_from_events": (
        "total_points", 10.5, lambda: labels_from_events([[1, 2]], 10.5)
    ),
    "generate_train_test": (
        "train_points", 50.5, lambda: generate_train_test(spec(), 50.5)
    ),
    "place_events-total": (
        "total_points", 100.5, lambda: place_events(100.5, [5], 2, RNG)
    ),
    "place_events-length": (
        "event_lengths", 5.5, lambda: place_events(100, [5.5], 2, RNG)
    ),
    "place_events-gap": (
        "gap_policy", 2.5, lambda: place_events(100, [5, 5], 2.5, RNG)
    ),
    "DatasetShape-normal": ("n_normal", 10.5, lambda: DatasetShape(10.5, 2)),
    "DatasetShape-anomalous": (
        "n_anomalous", 2.5, lambda: DatasetShape(10, 2.5)
    ),
    "default_far_grid": (
        "points", 4.5, lambda: default_far_grid(0.01, 0.1, 4.5)
    ),
    "ConfusionCounts": ("tp", 1.5, lambda: ConfusionCounts(1.5, 0, 0, 0)),
    "PcaConfig": ("smooth_window", 2.5, lambda: PcaConfig(smooth_window=2.5)),
    "ScoredModel": ("smooth_window", 2.5, lambda: model(smooth_window=2.5)),
}


@pytest.mark.parametrize("case", sorted(FRACTIONAL_CASES))
def test_fractional_counts_are_refused(case):
    name, value, call = FRACTIONAL_CASES[case]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_counts_are_counts():
    setup = AttackSetup(np.int64(100), np.int32(10), np.int64(2))
    assert setup.contamination_rate == 0.1
    assert worst_case_f1_pa(np.int64(10), 2) == worst_case_f1_pa(10, 2)
    assert prob_perfect_recall(0.1, np.int64(2)) == prob_perfect_recall(0.1, 2)
    assert f1_pa_for_hits(10, np.int16(5), np.int8(1)) == (
        f1_pa_for_hits(10, 5, 1)
    )
    assert worst_case_precision_pa(np.uint8(10), 2) == 10 / 11
    alphas = [row.alpha for row in worst_case_table(50, 0.1, np.arange(1, 3))]
    assert alphas == [1, 2] and all(type(a) is int for a in alphas)
    labels = single_segment_labels(100, 10)
    trials = random_flag_trials(labels, np.int64(2), np.int32(3))
    assert trials.hits.shape == (3,)
