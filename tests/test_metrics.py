"""Core containers, segmentation and point-level rates."""

import numpy as np
import pytest

from tsadeval.metrics import (
    ConfusionCounts,
    LabelSeries,
    PredictionSeries,
    Segment,
    as_binary_array,
    false_alarm_rate,
    harmonic_f1,
    point_confusion,
    precision_recall_f1,
    prf_from_counts,
    segmentize,
)


def naive_segments(flags):
    """Brute-force reference: scan for runs one point at a time."""
    runs = []
    start = None
    for i, v in enumerate(list(flags) + [0]):
        if v == 1 and start is None:
            start = i
        elif v == 0 and start is not None:
            runs.append((start, i - 1))
            start = None
    return runs


class TestSegment:
    def test_length_and_order(self):
        seg = Segment(3, 7)
        assert seg.length == 5
        assert Segment(1, 1).length == 1

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Segment(-1, 2)
        with pytest.raises(ValueError):
            Segment(5, 4)

    def test_overlaps(self):
        assert Segment(0, 4).overlaps(Segment(4, 9))
        assert not Segment(0, 3).overlaps(Segment(4, 9))


class TestAsBinaryArray:
    def test_accepts_bool_and_int(self):
        assert as_binary_array([True, False]).tolist() == [1, 0]
        assert as_binary_array(np.array([0, 1, 1])).dtype == np.int8

    def test_accepts_exact_float_flags(self):
        assert as_binary_array([0.0, 1.0]).tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [[0, 2], [0.5], [-1, 0], ["a"]])
    def test_rejects_non_binary(self, bad):
        with pytest.raises(ValueError):
            as_binary_array(bad)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_binary_array(np.zeros((2, 2)))


class TestSegmentize:
    @pytest.mark.parametrize(
        "flags,expected",
        [
            ([0, 0, 0], []),
            ([1, 1, 1], [(0, 2)]),
            ([0, 1, 1, 0, 1], [(1, 2), (4, 4)]),
            ([1], [(0, 0)]),
            ([1, 0, 1], [(0, 0), (2, 2)]),
        ],
    )
    def test_known_patterns(self, flags, expected):
        assert [(s.start, s.end) for s in segmentize(flags)] == expected

    def test_matches_naive_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            flags = (rng.random(rng.integers(1, 60)) < 0.4).astype(int)
            got = [(s.start, s.end) for s in segmentize(flags)]
            assert got == naive_segments(flags)


class TestSeries:
    def test_label_series_properties(self):
        labels = LabelSeries([0, 1, 1, 0, 1])
        assert labels.n_points == 5
        assert labels.n_anomalous == 3
        assert labels.n_normal == 2
        assert labels.n_events == 2
        assert labels.contamination_rate == pytest.approx(0.6)

    def test_values_are_immutable(self):
        labels = LabelSeries([0, 1])
        with pytest.raises(ValueError):
            labels.values[0] = 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabelSeries([])

    def test_prediction_segments(self):
        preds = PredictionSeries([1, 0, 0, 1, 1])
        assert [(s.start, s.end) for s in preds.segments] == [(0, 0), (3, 4)]

    def test_equality(self):
        assert LabelSeries([0, 1]) == LabelSeries([0, 1])
        assert LabelSeries([0, 1]) != LabelSeries([1, 1])


class TestConfusion:
    def test_worked_example(self):
        labels = LabelSeries([0, 0, 0, 1, 1, 1, 1, 1, 0, 0])
        preds = PredictionSeries([0, 0, 0, 0, 0, 1, 0, 0, 0, 1])
        counts = point_confusion(labels, preds)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 4, 4)
        assert counts.total == 10

    def test_matches_naive_on_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            lv = (rng.random(n) < 0.3).astype(int)
            pv = (rng.random(n) < 0.5).astype(int)
            counts = point_confusion(LabelSeries(lv), PredictionSeries(pv))
            tp = sum(1 for a, b in zip(lv, pv) if a and b)
            fp = sum(1 for a, b in zip(lv, pv) if not a and b)
            fn = sum(1 for a, b in zip(lv, pv) if a and not b)
            tn = n - tp - fp - fn
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == (
                tp,
                fp,
                fn,
                tn,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            point_confusion(LabelSeries([0, 1]), PredictionSeries([1]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestRates:
    def test_worked_example_rates(self):
        counts = ConfusionCounts(tp=1, fp=1, fn=4, tn=4)
        precision, recall, f1 = precision_recall_f1(counts)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.2)
        assert f1 == pytest.approx(0.285714, abs=1e-6)
        assert false_alarm_rate(counts) == pytest.approx(0.2)

    def test_zero_denominators_give_zero(self):
        assert precision_recall_f1(ConfusionCounts(0, 0, 0, 5)) == (
            0.0,
            0.0,
            0.0,
        )
        assert prf_from_counts(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)
        assert harmonic_f1(0.0, 0.0) == 0.0

    def test_fractional_counts(self):
        precision, recall, f1 = prf_from_counts(99.0, 100.0, 1.0)
        assert f1 == pytest.approx(198 / 299, abs=1e-12)

    def test_array_counts_match_scalar_calls(self):
        rng = np.random.default_rng(11)
        tp, fp, fn = rng.integers(0, 4, (3, 200))
        arrays = prf_from_counts(tp, fp, fn)
        for i in range(tp.size):
            scalars = prf_from_counts(int(tp[i]), int(fp[i]), int(fn[i]))
            assert tuple(a[i] for a in arrays) == scalars
        assert all(type(v) is float for v in prf_from_counts(1, 2, 3))

    def test_far_all_anomalous_is_zero_with_warning(self):
        counts = ConfusionCounts(tp=3, fp=0, fn=1, tn=0)
        with pytest.warns(UserWarning, match="no normal points"):
            assert false_alarm_rate(counts) == 0.0

    def test_far_all_positive_on_normal_points(self):
        counts = ConfusionCounts(tp=2, fp=8, fn=0, tn=0)
        assert false_alarm_rate(counts) == 1.0
