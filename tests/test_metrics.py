"""Core containers, segmentation and point-level rates."""

import copy
import pickle
from dataclasses import fields, is_dataclass
from typing import Mapping

import numpy as np
import pytest

from tsadeval.adversary import AttackSetup, F1PaDistribution, RandomFlagTrials
from tsadeval.data_io import MvtsFrame
from tsadeval.metrics import (
    ConfusionCounts,
    LabelSeries,
    PredictionSeries,
    Segment,
    _ratio,
    as_binary_array,
    false_alarm_rate,
    harmonic_f1,
    point_confusion,
    precision_recall_f1,
    prf_from_counts,
    segmentize,
)
from tsadeval.pca_baseline import AnomalyScoreSeries, ScoredModel
from tsadeval.protocols import Protocol, _rates


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

    @pytest.mark.parametrize(
        "flags",
        [np.array([True, False]), np.array([1, 0], np.int8), np.array([1.0, 0.0])],
        ids=["bool", "int", "float"],
    )
    def test_returns_a_read_only_int8_copy(self, flags):
        arr = as_binary_array(flags)
        assert arr.dtype == np.int8 and arr.tolist() == [1, 0]
        assert not arr.flags.writeable and flags.flags.writeable
        assert not np.shares_memory(arr, flags)


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

    @pytest.mark.parametrize("cls", [LabelSeries, PredictionSeries])
    def test_runs_match_a_naive_scan_and_are_read_only(self, cls):
        rng = np.random.default_rng(3)
        for _ in range(200):
            flags = (rng.random(rng.integers(1, 60)) < 0.4).astype(int)
            series = cls(flags)
            runs = zip(series.starts.tolist(), series.ends.tolist())
            assert list(runs) == naive_segments(flags)
            for bounds in (series.starts, series.ends):
                assert bounds.dtype == np.int64
                assert not bounds.flags.writeable
        with pytest.raises(ValueError):
            cls([0, 1, 1]).starts[0] = 0
        with pytest.raises(ValueError):
            cls([0, 1, 1]).ends[0] = 0

    @pytest.mark.parametrize(
        "values", [[1], [0], [1, 0, 0], [1, 1, 0, 1], [0, 1, 1, 0, 1], [0, 0]]
    )
    def test_counts_equal_a_recount(self, values):
        ones = int(np.count_nonzero(values))
        labels, preds = LabelSeries(values), PredictionSeries(values)
        assert labels.n_positive == preds.n_positive == ones
        assert labels.n_anomalous == ones
        assert labels.n_normal == len(values) - ones
        assert labels.n_events == len(naive_segments(values))

    def test_values_are_immutable(self):
        labels = LabelSeries([0, 1])
        with pytest.raises(ValueError):
            labels.values[0] = 1

    @pytest.mark.parametrize("cls", [LabelSeries, PredictionSeries])
    @pytest.mark.parametrize(
        "name", ["values", "starts", "ends", "n_positive", "extra"]
    )
    def test_attributes_cannot_be_rebound(self, cls, name):
        series = cls([0, 1, 1, 0])
        with pytest.raises(AttributeError):
            setattr(series, name, 5)
        with pytest.raises(AttributeError):
            delattr(series, name)
        assert len(series) == 4
        assert series.starts.tolist() == [1]
        assert series.ends.tolist() == [2]
        assert series.n_positive == 2
        assert not hasattr(series, "extra")
        if cls is LabelSeries:
            assert series.n_normal == 2

    @pytest.mark.parametrize("cls", [LabelSeries, PredictionSeries])
    def test_pickle_and_deepcopy_round_trip(self, cls):
        series = cls([1, 1, 0, 0, 1])
        for back in (pickle.loads(pickle.dumps(series)), copy.deepcopy(series)):
            assert type(back) is cls
            assert back == series
            assert back.starts.tolist() == [0, 4]
            assert back.ends.tolist() == [1, 4]
            assert back.n_positive == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabelSeries([])

    def test_prediction_segments(self):
        preds = PredictionSeries([1, 0, 0, 1, 1])
        assert [(s.start, s.end) for s in preds.segments] == [(0, 0), (3, 4)]

    def test_equality(self):
        assert LabelSeries([0, 1]) == LabelSeries([0, 1])
        assert LabelSeries([0, 1]) != LabelSeries([1, 1])

    @pytest.mark.parametrize("values", [[0, 1], [1], [0, 0, 1, 1]])
    def test_labels_never_equal_predictions(self, values):
        labels, preds = LabelSeries(values), PredictionSeries(values)
        assert labels.__eq__(preds) is NotImplemented
        assert labels != preds and preds != labels


def values_of_every_type(bump=0):
    """One value of each type that keeps read-only arrays, by type name;
    bump=1 changes one element of one of its arrays."""
    return {
        "LabelSeries": LabelSeries([1, 1, 0, 0, 1 - bump]),
        "PredictionSeries": PredictionSeries([1, 1, 0, 0, 1 - bump]),
        "MvtsFrame": MvtsFrame(
            [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0 + bump]],
            channel_names=("a", "b"),
            labels=LabelSeries([0, 1, 1]),
        ),
        "AnomalyScoreSeries": AnomalyScoreSeries([0.0, 1.5, 2.0 + bump]),
        # a Fortran-ordered basis, as fit leaves it
        "ScoredModel": ScoredModel(
            center=[0.0, bump, 1.0], spread=[1.0, 2.0, 1.0],
            clip_low=[-3.0] * 3, clip_high=[3.0] * 3, mean=[0.0, 0.5, 0.0],
            basis=np.asfortranarray(np.eye(3)[:, :2]), smooth_window=2,
        ),
        "F1PaDistribution": F1PaDistribution(
            AttackSetup(10, 5, 1), "monte-carlo", hits=[0, 1],
            f1=[0.0, 0.5 + bump / 4], probability=[0.25, 0.75],
            trials=4, seed=0,
        ),
        # the changed element lies in the F1 mapping
        "RandomFlagTrials": RandomFlagTrials(
            alpha=2, trials=2, seed=0, hits=[0, 2],
            f1_by_protocol={
                Protocol.POINT_WISE: [0.0, 0.8],
                Protocol.POINT_ADJUST: [0.0, 1.0 - bump / 10],
            },
        ),
    }


def arrays_of(value):
    """Every array a value holds, in its fields, its mappings and the
    values it holds in turn."""
    for f in fields(value):
        item = getattr(value, f.name)
        for x in item.values() if isinstance(item, Mapping) else [item]:
            if isinstance(x, np.ndarray):
                yield x
            elif is_dataclass(x):
                yield from arrays_of(x)


TYPE_NAMES = list(values_of_every_type())


class TestValues:
    @pytest.mark.parametrize("name", TYPE_NAMES)
    def test_pickle_and_deepcopy_rebuild_an_equal_read_only_value(self, name):
        value = values_of_every_type()[name]
        for back in (
            pickle.loads(pickle.dumps(value)),
            copy.deepcopy(value),
            copy.copy(value),
        ):
            assert type(back) is type(value)
            assert back == value and not back != value
            arrays = list(zip(arrays_of(back), arrays_of(value), strict=True))
            assert arrays
            for got, want in arrays:
                assert not got.flags.writeable
                assert got.dtype == want.dtype
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert got.flags.c_contiguous == want.flags.c_contiguous

    @pytest.mark.parametrize("name", TYPE_NAMES)
    def test_one_changed_element_makes_values_unequal(self, name):
        value, same = values_of_every_type()[name], values_of_every_type()[name]
        changed = values_of_every_type(bump=1)[name]
        assert value == same and value is not same
        assert value != changed and not value == changed
        assert changed != value

    @pytest.mark.parametrize("name", TYPE_NAMES)
    def test_values_do_not_hash(self, name):
        with pytest.raises(TypeError):
            hash(values_of_every_type()[name])


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
        # one zero-denominator rule for scalars and arrays: whole and
        # fractional counts, many of them 0, through every protocol's rates
        # (point-wise's are prf_from_counts')
        rng = np.random.default_rng(11)
        names = ("tp", "fp", "adjusted_tp", "tp_e", "fp_e")
        # the labels' totals are the other denominators: labels with no
        # events (no anomalous points), with no normal points, and with both
        every_labels = (
            LabelSeries([0, 0, 0]),
            LabelSeries([1, 1, 1, 1]),
            LabelSeries([0, 1, 1, 0, 1, 0, 0]),
        )

        def assert_rows_match(counts):
            tp, fp, gain, tp_e, fp_e = counts
            adjusted_tp = np.where(rng.random(tp.size) < 0.5, tp, tp + gain)
            columns = (tp, fp, adjusted_tp, tp_e, fp_e)
            # as score() passes them: ints where the count is whole
            rows = [
                {n: int(v) if v == int(v) else v for n, v in zip(names, row)}
                for row in zip(*(c.tolist() for c in columns))
            ]
            assert not (tp + fp).all() and not (tp_e + fp_e).all()
            for labels in every_labels:
                for protocol in Protocol:
                    by_name = dict(zip(names, columns))
                    arrays = _rates(protocol, labels, **by_name)
                    for i, row in enumerate(rows):
                        scalars = _rates(protocol, labels, **row)
                        assert all(type(v) is float for v in scalars)
                        assert tuple(a[i] for a in arrays) == scalars

        fractional = rng.integers(0, 4, (5, 400)).astype(float)
        fractional[:, 1::2] *= rng.random((5, 200))
        assert_rows_match(fractional)
        # whole counts as the sweep and the trial engine pass them: int64
        # arrays, which np.divide turns into float64 inside its loop
        assert_rows_match(rng.integers(0, 4, (5, 400)))
        # bool arrays too, as numerator and denominator alike
        flags = rng.random((2, 400)) < 0.5
        whole = rng.integers(0, 3, 400)
        pairs = ((flags[0], flags[1]), (flags[0], whole), (whole, flags[1]))
        for num, den in pairs:
            rates = _ratio(num, den)
            assert rates.dtype == np.float64
            assert rates.tolist() == [
                _ratio(int(n), int(d)) for n, d in zip(num, den)
            ]
        with pytest.warns(UserWarning, match="no normal points"):
            far = false_alarm_rate(ConfusionCounts(tp=2, fp=0, fn=1, tn=0))
        assert far == 0.0 and type(far) is float

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
    def test_ratio_divides_in_float64(self, dtype):
        assert _ratio(dtype(1), dtype(3)) == 1 / 3
        rates = _ratio(np.array([1, 0], dtype), np.array([3, 0], dtype))
        assert rates.dtype == np.float64 and rates.tolist() == [1 / 3, 0.0]

    def test_far_all_anomalous_is_zero_with_warning(self):
        counts = ConfusionCounts(tp=3, fp=0, fn=1, tn=0)
        with pytest.warns(UserWarning, match="no normal points"):
            assert false_alarm_rate(counts) == 0.0

    def test_far_all_positive_on_normal_points(self):
        counts = ConfusionCounts(tp=2, fp=8, fn=0, tn=0)
        assert false_alarm_rate(counts) == 1.0
