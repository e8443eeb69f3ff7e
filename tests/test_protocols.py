"""Scoring protocols: worked examples, reference scorers and invariants."""

import dataclasses
import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsadeval import pca_baseline
from tsadeval import protocols as protocols_module
from tsadeval.adversary import random_flag_trials
from tsadeval.metrics import (
    FAR_NO_NORMAL_WARNING,
    LabelSeries,
    PredictionSeries,
    point_confusion,
)
from tsadeval.pca_baseline import AnomalyScoreSeries
from tsadeval.protocols import (
    DEPRECATED_PROTOCOLS,
    Protocol,
    ProtocolReport,
    _block_counts,
    _event_counts,
    evaluate,
    point_adjust,
    predictions_at_threshold,
    score,
    score_all,
    sweep_threshold,
)

WORKED_LABELS = LabelSeries([0, 0, 0, 1, 1, 1, 1, 1, 0, 0])
WORKED_PREDS = PredictionSeries([0, 0, 0, 0, 0, 1, 0, 0, 0, 1])


def naive_point_adjust(label_values, pred_values):
    """Reference adjustment: expand predictions event by event, by hand."""
    out = list(pred_values)
    i = 0
    n = len(label_values)
    while i < n:
        if label_values[i] == 1:
            j = i
            while j < n and label_values[j] == 1:
                j += 1
            if any(out[i:j]):
                out[i:j] = [1] * (j - i)
            i = j
        else:
            i += 1
    return out


def naive_runs(values):
    """Reference run finder: inclusive (start, end) pairs, point by point."""
    runs = []
    start = None
    for i, v in enumerate(list(values) + [0]):
        if v == 1 and start is None:
            start = i
        elif v == 0 and start is not None:
            runs.append((start, i - 1))
            start = None
    return runs


def naive_event_counts(label_values, pred_values):
    """Reference (tp_e, fp_e, fn_e): events with a predicted point, predicted
    segments with no anomalous point, events with no predicted point."""
    events = naive_runs(label_values)
    segments = naive_runs(pred_values)
    tp_e = sum(any(pred_values[s : e + 1]) for s, e in events)
    fp_e = sum(not any(label_values[s : e + 1]) for s, e in segments)
    return tp_e, fp_e, len(events) - tp_e


@st.composite
def flag_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    flags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    labels = draw(st.one_of(flags, st.just([0] * n), st.just([1] * n)))
    preds = draw(st.one_of(flags, st.just([0] * n), st.just([1] * n)))
    return labels, preds


def random_pair(rng, max_points=200):
    n = int(rng.integers(1, max_points))
    labels = (rng.random(n) < rng.uniform(0.0, 0.4)).astype(np.int8)
    preds = (rng.random(n) < rng.uniform(0.0, 0.6)).astype(np.int8)
    return LabelSeries(labels), PredictionSeries(preds)


class TestWorkedExample:
    def test_point_wise(self):
        r = score(WORKED_LABELS, WORKED_PREDS, Protocol.POINT_WISE)
        assert r.precision == pytest.approx(0.5)
        assert r.recall == pytest.approx(0.2)
        assert r.f1 == pytest.approx(0.285714, abs=1e-6)

    def test_point_adjust(self):
        r = score(WORKED_LABELS, WORKED_PREDS, Protocol.POINT_ADJUST)
        assert r.precision == pytest.approx(5 / 6, abs=1e-12)
        assert r.recall == pytest.approx(1.0)
        assert r.f1 == pytest.approx(0.909091, abs=1e-6)
        assert r.deprecated

    def test_adjusted_values(self):
        adjusted = point_adjust(WORKED_LABELS, WORKED_PREDS)
        assert adjusted.values.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 0, 1]

    def test_composite(self):
        r = score(WORKED_LABELS, WORKED_PREDS, Protocol.COMPOSITE)
        assert r.recall == pytest.approx(1.0)
        assert r.precision == pytest.approx(0.5)
        assert r.f1 == pytest.approx(0.666667, abs=1e-6)
        assert (r.tp_e, r.fp_e, r.fn_e) == (1, None, 0)

    def test_event_wise(self):
        r = score(WORKED_LABELS, WORKED_PREDS, Protocol.EVENT_WISE)
        assert (r.tp_e, r.fp_e, r.fn_e) == (1, 1, 0)
        assert r.far == pytest.approx(0.2)
        assert r.precision == pytest.approx(0.4)
        assert r.recall == pytest.approx(1.0)
        assert r.f1 == pytest.approx(0.571429, abs=1e-6)


class TestEventWiseExample:
    """Three true events over 100 points against five predicted segments."""

    def setup_method(self):
        labels = np.zeros(100, dtype=np.int8)
        for s, e in [(10, 19), (40, 49), (70, 79)]:
            labels[s : e + 1] = 1
        preds = np.zeros(100, dtype=np.int8)
        for s, e in [(12, 14), (72, 75), (0, 2), (30, 31), (55, 55)]:
            preds[s : e + 1] = 1
        self.labels = LabelSeries(labels)
        self.preds = PredictionSeries(preds)

    def test_counts_and_rates(self):
        r = score(self.labels, self.preds, Protocol.EVENT_WISE)
        assert (r.tp_e, r.fp_e, r.fn_e) == (2, 3, 1)
        assert r.far == pytest.approx(6 / 70, abs=1e-12)
        assert r.precision == pytest.approx(0.365714, abs=1e-6)
        assert r.recall == pytest.approx(2 / 3, abs=1e-12)
        assert r.f1 == pytest.approx(0.472325, abs=1e-6)


class TestEventCountsAgainstNaive:
    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(flag_pairs())
    @example(([1], [1]))
    @example(([0], [0]))
    @example(([1], [0]))
    @example(([0], [1]))
    @example(([0, 0, 0, 0], [1, 0, 1, 1]))
    @example(([1, 1, 1, 1], [0, 1, 0, 0]))
    @example(([0, 1, 1, 0, 1], [0, 0, 0, 0, 0]))
    @example(([0, 1, 1, 0, 1], [1, 1, 1, 1, 1]))
    def test_counts_and_adjustment(self, pair):
        label_values, pred_values = pair
        labels = LabelSeries(label_values)
        preds = PredictionSeries(pred_values)
        tp_e, fp_e, fn_e = naive_event_counts(label_values, pred_values)
        composite = score(labels, preds, Protocol.COMPOSITE)
        event_wise = score(labels, preds, Protocol.EVENT_WISE)
        assert (composite.tp_e, composite.fn_e) == (tp_e, fn_e)
        assert (event_wise.tp_e, event_wise.fp_e, event_wise.fn_e) == (
            tp_e,
            fp_e,
            fn_e,
        )
        adjusted = point_adjust(labels, preds)
        assert adjusted.values.tolist() == (
            naive_point_adjust(label_values, pred_values)
        )
        assert score(
            labels, preds, Protocol.POINT_ADJUST
        ) == dataclasses.replace(
            score(labels, adjusted, Protocol.POINT_WISE),
            protocol=Protocol.POINT_ADJUST,
        )


def warned_no_normal(call):
    """call()'s result and how many times it warned of no normal points."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, sum("no normal points" in str(w.message) for w in caught)


class TestScoreAllAgainstScore:
    @settings(max_examples=300, deadline=None)
    @given(flag_pairs(), st.lists(st.sampled_from(list(Protocol)), unique=True))
    @example(([1], [1]), list(Protocol))  # length 1
    @example(([0, 0, 0], [0, 1, 0]), list(Protocol))  # no events
    @example(([1, 1, 1], [0, 1, 0]), list(Protocol)[::-1])  # all anomalous
    @example(([0, 1, 1, 0], [1, 1, 1, 1]), list(Protocol))  # all predicted
    @example(([0, 1, 1, 0], [0, 0, 0, 0]), list(Protocol))  # none predicted
    def test_reports_equal_per_protocol_scores(self, pair, protocols):
        # reprs are equal only if every float has the same bits and every
        # count the same type and value
        labels, preds = LabelSeries(pair[0]), PredictionSeries(pair[1])
        together, warned = warned_no_normal(
            lambda: score_all(labels, preds, tuple(protocols))
        )
        one_by_one, warned_alone = warned_no_normal(
            lambda: [score(labels, preds, p) for p in protocols]
        )
        assert repr(together) == repr(one_by_one)
        # each call warns once of a series with no normal points
        no_normal = labels.n_normal == 0
        assert warned == (min(1, len(protocols)) if no_normal else 0)
        assert warned_alone == (len(protocols) if no_normal else 0)

    def test_counts_the_pair_once(self, monkeypatch):
        calls = []
        for name in ("point_confusion", "_event_counts"):
            fn = getattr(protocols_module, name)

            def counted(*args, fn=fn):
                calls.append(fn.__name__)
                return fn(*args)

            monkeypatch.setattr(protocols_module, name, counted)
        subsets = [list(Protocol)[:n] for n in range(1, len(Protocol) + 1)]
        for chosen in [*subsets, list(Protocol) * 2]:
            calls.clear()
            reports = score_all(WORKED_LABELS, WORKED_PREDS, tuple(chosen))
            assert len(reports) == len(chosen)
            assert sorted(calls) == ["_event_counts", "point_confusion"]


@st.composite
def alarm_blocks(draw):
    """(label values, rows of sorted alarms): up to 40 points, 1 to 5 rows
    of one alarm count in [0, T], each row a subset of the positions."""
    n = draw(st.integers(min_value=1, max_value=40))
    flags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    labels = draw(st.one_of(flags, st.just([0] * n), st.just([1] * n)))
    alpha = draw(st.integers(min_value=0, max_value=n))
    orders = st.lists(st.permutations(range(n)), min_size=1, max_size=5)
    return labels, [sorted(order[:alpha]) for order in draw(orders)]


class TestBlockCountsAgainstScore:
    """_block_counts against point-by-point counts of each row's prediction.

    F1 alone cannot catch every wrong count: event-wise F1 is 0 whenever
    tp_e is 0, whatever fp_e reads.
    """

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(alarm_blocks())
    @example(([1], [[0]]))  # length 1
    @example(([0], [[0], [0]]))
    @example(([1], [[]]))  # no alarms
    @example(([0, 0, 0, 0, 0], [[0, 2, 3], [1, 2, 4]]))  # no events
    @example(([1, 1, 1, 1], [[0, 1, 3], [0, 2, 3]]))  # all anomalous
    @example(([1, 1, 0, 0, 1, 0, 0, 1], [[0, 3, 7], [1, 4, 5]]))  # both ends
    # alarms that fill the gap between two events, touching both or neither
    @example(([1, 1, 0, 0, 1], [[1, 2, 3], [2, 3, 4], [0, 2, 3]]))
    @example(([1, 0, 0, 1], [[1, 2]]))
    # a row with no hit between rows with hits
    @example(([0, 1, 0, 0, 1, 1], [[1, 4], [0, 2], [4, 5]]))
    def test_counts_equal_point_by_point_counts(self, block):
        values, rows = block
        labels = LabelSeries(values)
        alarms = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        counts = _block_counts(labels, alarms)
        assert counts["n_normal"] == labels.n_normal
        names = ("tp", "fp", "fn", "adjusted_tp", "tp_e", "fp_e", "fn_e")
        assert set(counts) == {"n_normal", *names}
        for name in names:
            assert counts[name].dtype == np.int64
            assert counts[name].shape == (len(rows),)
        for i, row in enumerate(rows):
            flags = np.zeros(len(values), dtype=np.int8)
            flags[row] = 1
            preds = PredictionSeries(flags)
            raw = point_confusion(labels, preds)
            adjusted = point_confusion(labels, point_adjust(labels, preds))
            events = _event_counts(labels, preds)
            expected = dict(
                tp=raw.tp, fp=raw.fp, fn=raw.fn, adjusted_tp=adjusted.tp,
                tp_e=events["tp_e"], fp_e=events["fp_e"], fn_e=events["fn_e"],
            )
            assert {name: counts[name][i] for name in names} == expected


class TestPointAdjustBehaviour:
    def test_matches_naive_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            labels, preds = random_pair(rng)
            adjusted = point_adjust(labels, preds)
            assert adjusted.values.tolist() == naive_point_adjust(
                labels.values.tolist(), preds.values.tolist()
            )

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            labels, preds = random_pair(rng)
            once = point_adjust(labels, preds)
            twice = point_adjust(labels, once)
            assert np.array_equal(once.values, twice.values)

    def test_never_removes_positives(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            labels, preds = random_pair(rng)
            adjusted = point_adjust(labels, preds)
            assert np.all(adjusted.values >= preds.values)

    def test_only_fills_inside_events(self):
        labels = LabelSeries([0, 1, 1, 0, 0])
        preds = PredictionSeries([1, 0, 1, 0, 1])
        adjusted = point_adjust(labels, preds)
        assert adjusted.values.tolist() == [1, 1, 1, 0, 1]


class TestInvariants:
    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(flag_pairs())
    @example(([1], [0]))  # length 1
    @example(([0, 0, 0, 0], [1, 0, 1, 1]))  # no events
    @example(([1, 1, 1, 1], [0, 1, 0, 0]))  # all anomalous
    @example(([0, 1, 1, 0, 1], [1, 1, 1, 1, 1]))  # all predicted
    def test_criterion_06_invariants(self, pair):
        label_values, pred_values = pair
        labels = LabelSeries(label_values)
        preds = PredictionSeries(pred_values)
        assert (
            score(labels, preds, Protocol.POINT_ADJUST).f1
            >= score(labels, preds, Protocol.POINT_WISE).f1 - 1e-12
        )
        once = point_adjust(labels, preds)
        assert np.array_equal(once.values, point_adjust(labels, once).values)
        assert (
            score(labels, preds, Protocol.COMPOSITE).recall
            == score(labels, preds, Protocol.EVENT_WISE).recall
        )
        if labels.n_events > 0:
            perfect = PredictionSeries(label_values)
            for report in score_all(labels, perfect):
                assert report.f1 == pytest.approx(1.0, abs=1e-12)
        if labels.n_normal > 0:
            all_positive = PredictionSeries([1] * len(label_values))
            assert score(labels, all_positive, Protocol.EVENT_WISE).f1 == 0.0

    def test_adjusted_f1_dominates_point_wise(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            labels, preds = random_pair(rng)
            pw = score(labels, preds, Protocol.POINT_WISE).f1
            pa = score(labels, preds, Protocol.POINT_ADJUST).f1
            assert pa >= pw - 1e-12

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    def test_composite_recall_equals_event_wise_recall(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            labels, preds = random_pair(rng)
            assert (
                score(labels, preds, Protocol.COMPOSITE).recall
                == score(labels, preds, Protocol.EVENT_WISE).recall
            )

    def test_perfect_predictions_score_one_everywhere(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 50:
            labels, _ = random_pair(rng)
            if labels.n_events == 0:
                continue
            perfect = PredictionSeries(labels.values.copy())
            for report in score_all(labels, perfect):
                assert report.f1 == pytest.approx(1.0, abs=1e-12)
            checked += 1

    def test_all_positive_event_wise_is_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            labels, _ = random_pair(rng)
            all_pos = PredictionSeries(np.ones(len(labels), dtype=np.int8))
            report = score(labels, all_pos, Protocol.EVENT_WISE)
            if labels.n_normal > 0:
                assert report.f1 == 0.0
                assert report.far == 1.0

    def test_all_anomalous_perfect_far_zero(self):
        labels = LabelSeries([1, 1, 1])
        preds = PredictionSeries([1, 1, 1])
        with pytest.warns(UserWarning, match="no normal points"):
            report = score(labels, preds, Protocol.EVENT_WISE)
        assert report.far == 0.0
        assert report.f1 == pytest.approx(1.0)


class TestDispatch:
    def test_score_accepts_strings(self):
        report = score(WORKED_LABELS, WORKED_PREDS, "composite")
        assert report.protocol is Protocol.COMPOSITE

    def test_score_all_order(self):
        reports = score_all(
            WORKED_LABELS,
            WORKED_PREDS,
            (Protocol.EVENT_WISE, Protocol.POINT_WISE),
        )
        assert [r.protocol for r in reports] == [
            Protocol.EVENT_WISE,
            Protocol.POINT_WISE,
        ]

    def test_deprecated_marking(self):
        assert DEPRECATED_PROTOCOLS == {Protocol.POINT_ADJUST}
        report = score(WORKED_LABELS, WORKED_PREDS, Protocol.POINT_WISE)
        assert not report.deprecated

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            score(
                LabelSeries([0, 1]), PredictionSeries([1]), Protocol.COMPOSITE
            )

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ProtocolReport(
                protocol=Protocol.POINT_WISE,
                precision=0.5,
                recall=0.5,
                f1=0.9,
                far=0.0,
            )

    def test_report_range_enforced(self):
        message = "precision must lie in [0, 1], got 1.5"
        with pytest.raises(ValueError, match=re.escape(message)):
            ProtocolReport(
                protocol=Protocol.POINT_WISE,
                precision=1.5,
                recall=0.5,
                f1=0.75,
                far=0.0,
            )


class TestLayering:
    def test_pca_baseline_re_exports_the_threshold_functions(self):
        for name in ("sweep_threshold", "predictions_at_threshold"):
            moved = getattr(protocols_module, name)
            assert getattr(pca_baseline, name) is moved

    def test_protocols_imports_no_detector(self):
        # a fresh interpreter: this one has imported pca_baseline already
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, tsadeval.protocols; "
                "assert 'tsadeval.pca_baseline' not in sys.modules",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr


# every subset of the protocols, the empty one included
PROTOCOL_SUBSETS = [
    subset
    for size in range(len(Protocol) + 1)
    for subset in itertools.combinations(Protocol, size)
]


def subset_id(protocols):
    return ",".join(p.value for p in protocols) or "none"


def assert_warns_at_caller(call, times):
    """call() warns of no normal points `times` times, and of nothing else;
    each warning points at this file, where the call was made."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [str(w.message) for w in caught] == [FAR_NO_NORMAL_WARNING] * times
    assert [w.filename for w in caught] == [__file__] * times


class TestNoNormalPointsWarnOncePerCall:
    """A series with no normal points has FAR 0.0 by convention. Each public
    scoring call warns of it at most once, and never of labels that hold a
    normal point."""

    ALL_ANOMALOUS = LabelSeries([1] * 6)
    WITH_NORMAL = LabelSeries([1, 1, 0, 1, 1, 1])
    PREDS = PredictionSeries([0, 1, 1, 0, 0, 1])
    SCORES = AnomalyScoreSeries(np.linspace(0.0, 1.0, 6))

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_score(self, protocol):
        for labels, times in ((self.ALL_ANOMALOUS, 1), (self.WITH_NORMAL, 0)):
            assert_warns_at_caller(
                lambda: score(labels, self.PREDS, protocol), times
            )

    @pytest.mark.parametrize("protocols", PROTOCOL_SUBSETS, ids=subset_id)
    def test_score_all(self, protocols):
        for labels, times in (
            (self.ALL_ANOMALOUS, min(1, len(protocols))),
            (self.WITH_NORMAL, 0),
        ):
            assert_warns_at_caller(
                lambda: score_all(labels, self.PREDS, protocols), times
            )

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_sweep_threshold(self, protocol):
        for labels, times in ((self.ALL_ANOMALOUS, 1), (self.WITH_NORMAL, 0)):
            assert_warns_at_caller(
                lambda: sweep_threshold(self.SCORES, labels, protocol), times
            )

    @pytest.mark.parametrize(
        "output, threshold",
        [(PREDS, None), (SCORES, 0.5), (SCORES, None)],
        ids=["prediction", "fixed-threshold", "sweep"],
    )
    def test_evaluate(self, output, threshold):
        for protocols in PROTOCOL_SUBSETS:
            for labels, times in (
                (self.ALL_ANOMALOUS, min(1, len(protocols))),
                (self.WITH_NORMAL, 0),
            ):
                assert_warns_at_caller(
                    lambda: evaluate(labels, output, threshold, protocols),
                    times,
                )

    @pytest.mark.parametrize("protocols", PROTOCOL_SUBSETS, ids=subset_id)
    def test_random_flag_trials(self, protocols):
        for labels, times in (
            (self.ALL_ANOMALOUS, min(1, len(protocols))),
            (self.WITH_NORMAL, 0),
        ):
            assert_warns_at_caller(
                lambda: random_flag_trials(labels, 3, 20, 1, protocols), times
            )


@st.composite
def thresholded_scores(draw):
    """(scores, label values, threshold): up to 30 points whose scores take
    few values, so ties are common, and a threshold that is None (sweep for
    one), one of the scores, +inf or -inf."""
    n = draw(st.integers(min_value=1, max_value=30))
    flags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    labels = draw(st.one_of(flags, st.just([0] * n), st.just([1] * n)))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
    scores = draw(st.lists(value, min_size=n, max_size=n))
    threshold = draw(
        st.one_of(
            st.none(), st.sampled_from(scores), st.sampled_from([np.inf, -np.inf])
        )
    )
    return scores, labels, threshold


def shuffled(protocols, order):
    """protocols in the order that `order`, a permutation of range(4), gives."""
    return tuple(protocols[i] for i in order if i < len(protocols))


class TestEvaluateAgainstComposition:
    """evaluate equals the composition it replaces: the sweep's point-wise
    threshold (unless one is given), the prediction at it, and score_all.
    reprs are equal only if every float has the same bits and every count
    the same type and value."""

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @pytest.mark.parametrize("protocols", PROTOCOL_SUBSETS, ids=subset_id)
    @settings(max_examples=40, deadline=None)
    @given(thresholded_scores(), st.permutations(range(len(Protocol))))
    @example(([0.5], [1], None), [0, 1, 2, 3])  # length 1
    @example(([0.25, 1.0, 0.5], [0, 0, 0], None), [3, 2, 1, 0])  # no events
    @example(([0.25, 1.0, 0.5], [1, 1, 1], None), [0, 1, 2, 3])  # all anomalous
    @example(([0.5] * 4, [0, 1, 1, 0], None), [1, 0, 3, 2])  # all tied
    @example(([0.0] * 5, [1, 0, 0, 0, 1], None), [0, 1, 2, 3])  # zero scores
    @example(([0.0] * 5, [1, 0, 0, 0, 1], np.inf), [0, 1, 2, 3])
    @example(([0.25, 1.0, 0.5], [0, 1, 0], -np.inf), [2, 0, 3, 1])
    def test_scores(self, protocols, layout, order):
        values, label_values, threshold = layout
        scores = AnomalyScoreSeries(np.array(values))
        labels = LabelSeries(label_values)
        protocols = shuffled(protocols, order)
        chosen = threshold
        if chosen is None:
            chosen = sweep_threshold(scores, labels, Protocol.POINT_WISE)[0]
        expected = chosen, score_all(
            labels, predictions_at_threshold(scores, chosen), protocols
        )
        assert repr(evaluate(labels, scores, threshold, protocols)) == repr(
            expected
        )

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @pytest.mark.parametrize("protocols", PROTOCOL_SUBSETS, ids=subset_id)
    @settings(max_examples=40, deadline=None)
    @given(flag_pairs(), st.permutations(range(len(Protocol))))
    @example(([1], [1]), [0, 1, 2, 3])
    def test_prediction(self, protocols, pair, order):
        labels, preds = LabelSeries(pair[0]), PredictionSeries(pair[1])
        protocols = shuffled(protocols, order)
        assert repr(evaluate(labels, preds, None, protocols)) == repr(
            (None, score_all(labels, preds, protocols))
        )

    @pytest.mark.parametrize("threshold", [0.5, np.inf, -np.inf])
    def test_prediction_takes_no_threshold(self, threshold):
        with pytest.raises(ValueError, match="only to scores"):
            evaluate(WORKED_LABELS, WORKED_PREDS, threshold)


class TestSweepShiftAndScale:
    """Adding an integer c >= 0 to every score, or multiplying every score
    by 2**k, moves each candidate threshold the same way and keeps the order
    of the scores, so every report stays the same. Integer-valued scores
    keep the arithmetic exact; +inf stays +inf."""

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=100, deadline=None)
    @given(
        flag_pairs().flatmap(
            lambda pair: st.tuples(
                st.just(pair[0]),
                st.lists(
                    st.integers(0, 4), min_size=len(pair[0]),
                    max_size=len(pair[0]),
                ),
            )
        ),
        st.integers(0, 1000),
        st.integers(0, 20),
    )
    @example(([1], [0]), 7, 3)
    @example(([0, 0, 0], [2, 2, 2]), 1, 1)  # no events, all tied: +inf wins
    @example(([1, 1, 0, 1], [0, 0, 0, 0]), 5, 2)
    def test_reports_stay_and_threshold_moves(self, layout, c, k):
        label_values, values = layout
        labels = LabelSeries(label_values)
        base = np.array(values, dtype=float)
        scores = AnomalyScoreSeries(base)
        for move in (lambda x: x + c, lambda x: x * 2.0**k):
            moved = AnomalyScoreSeries(move(base))
            for protocol in Protocol:
                threshold, report = sweep_threshold(scores, labels, protocol)
                assert repr(sweep_threshold(moved, labels, protocol)) == repr(
                    (move(threshold), report)
                )
            threshold, reports = evaluate(labels, scores)
            assert repr(evaluate(labels, moved)) == repr(
                (move(threshold), reports)
            )
