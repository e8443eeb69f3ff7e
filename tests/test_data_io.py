"""File formats, synthetic generation and the consistency checker."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadeval.data_io import (
    AnomalySignal,
    MvtsFrame,
    SyntheticSpec,
    atomic_open,
    atomic_write_text,
    check_label_consistency,
    generate_synthetic,
    generate_train_test,
    labels_from_events,
    load_events,
    load_frame,
    load_label_series,
    load_prediction_series,
    load_score_series,
    load_synthetic_spec,
    place_events,
    sha256_digest,
    synthetic_labels,
    write_csv,
    write_events,
    write_frame,
)
from tsadeval.metrics import LabelSeries, Segment


def small_spec(**overrides):
    base = dict(
        total_points=2000,
        event_lengths=(30, 50, 80),
        n_channels=5,
        anomaly_signal=AnomalySignal.MEAN_SHIFT,
        seed=123,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "x.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "y.txt"
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_the_path(self, tmp_path):
        target = tmp_path / "nodir" / "z.txt"
        with pytest.raises(FileNotFoundError) as caught:
            atomic_write_text(target, "text")
        assert caught.value.filename == str(target)

    def test_write_csv(self, tmp_path):
        target = tmp_path / "r.csv"
        write_csv(target, ["a", "b"], [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert target.read_text().splitlines() == ["a,b", "1,2", "3,4"]

    def test_sha256(self, tmp_path):
        target = tmp_path / "d.bin"
        target.write_bytes(b"abc")
        assert sha256_digest(target) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestFrameRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((40, 3)) * 1e3
        labels = LabelSeries((rng.random(40) < 0.2).astype(np.int8))
        frame = MvtsFrame(values=values, labels=labels)
        path = tmp_path / "f.csv"
        write_frame(frame, path)
        back = load_frame(path)
        assert np.array_equal(back.values, frame.values)
        assert back.labels == frame.labels
        assert back.channel_names == ("c0", "c1", "c2")

    def test_unlabelled_frame(self, tmp_path):
        frame = MvtsFrame(values=np.ones((3, 2)))
        path = tmp_path / "f.csv"
        write_frame(frame, path)
        back = load_frame(path)
        assert back.labels is None
        assert path.read_text().splitlines()[0] == "c0,c1"

    def test_header_spelling(self, tmp_path):
        frame = MvtsFrame(
            values=np.zeros((2, 2)),
            labels=LabelSeries([0, 1]),
        )
        path = tmp_path / "f.csv"
        write_frame(frame, path)
        assert path.read_text().splitlines()[0] == "c0,c1,label"

    @pytest.mark.parametrize(
        "body,message",
        [
            ("c0,c1\n1.0\n", "expected 2 fields"),
            ("c0,c1\n1.0,x\n", "not a number"),
            ("c0,c1\n1.0,nan\n", "non-finite"),
            ("c0,label\n1.0,2\n", "expected 0 or 1"),
            ("c0,label\n1.0,0.5\n", "expected 0 or 1"),
            ("label\n1\n", "no channel columns"),
            ("", "empty file"),
            ("c0\n", "no data rows"),
        ],
    )
    def test_malformed_inputs(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            load_frame(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0\n1.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_frame(path)

    def test_frame_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            MvtsFrame(values=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            MvtsFrame(values=np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="labels"):
            MvtsFrame(values=np.zeros((3, 1)), labels=LabelSeries([0, 1]))
        with pytest.raises(ValueError, match="channel names"):
            MvtsFrame(values=np.zeros((2, 2)), channel_names=("a",))


class TestSingleColumnLoaders:
    def test_label_only_file(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("label\n0\n1\n1\n")
        assert load_label_series(path).values.tolist() == [0, 1, 1]

    def test_labels_from_frame(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("c0,label\n0.5,0\n0.7,1\n")
        assert load_label_series(path).values.tolist() == [0, 1]

    def test_frame_without_labels_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("c0\n0.5\n")
        with pytest.raises(ValueError, match="no label column"):
            load_label_series(path)

    def test_predictions(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("prediction\n1\n0\n")
        assert load_prediction_series(path).values.tolist() == [1, 0]

    def test_scores(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("score\n0.25\n1.5\n")
        assert load_score_series(path).tolist() == [0.25, 1.5]

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n0.25\n")
        with pytest.raises(ValueError, match="header"):
            load_score_series(path)


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = [Segment(3, 7), Segment(20, 20)]
        path = tmp_path / "e.csv"
        write_events(events, path)
        assert path.read_text().splitlines() == ["start,end", "3,7", "20,20"]
        assert load_events(path) == events

    def test_end_exclusive_conversion(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n3,8\n")
        assert load_events(path, end_exclusive=True) == [Segment(3, 7)]
        write_events([Segment(3, 7)], path, end_exclusive=True)
        assert path.read_text().splitlines()[1] == "3,8"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("begin,end\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_events(path)

    def test_bad_bounds_with_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n5,4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_events(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n1.5,3\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_events(path)


class TestLabelsFromEvents:
    def test_union_of_overlaps(self):
        labels = labels_from_events([Segment(0, 4), Segment(3, 6)], 10)
        assert labels.values.tolist() == [1, 1, 1, 1, 1, 1, 1, 0, 0, 0]
        assert labels.n_events == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            labels_from_events([Segment(8, 12)], 10)

    def test_round_trip_with_segmentize(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            values = (rng.random(rng.integers(1, 80)) < 0.35).astype(np.int8)
            labels = LabelSeries(values)
            rebuilt = labels_from_events(labels.events, len(labels))
            assert rebuilt == labels

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=120))
    def test_round_trip_property(self, bits):
        labels = LabelSeries(np.array(bits, dtype=np.int8))
        assert labels_from_events(labels.events, len(labels)) == labels


class TestConsistency:
    def test_identical_is_consistent(self):
        labels = LabelSeries([0, 1, 1, 0])
        report = check_label_consistency(labels, labels)
        assert report.is_consistent
        assert report.runs == ()
        assert "consistent" in report.summary()

    def test_directions_and_runs(self):
        integrated = LabelSeries([1, 1, 0, 0, 1, 1])
        reconstructed = LabelSeries([1, 0, 0, 1, 1, 1])
        report = check_label_consistency(integrated, reconstructed)
        assert not report.is_consistent
        assert report.integrated_only == 1
        assert report.reconstructed_only == 1
        directions = [
            (r.segment.start, r.segment.end, r.direction) for r in report.runs
        ]
        assert directions == [
            (1, 1, "integrated-only"),
            (3, 3, "reconstructed-only"),
        ]

    def test_off_by_one_shows_boundary_runs(self):
        labels = labels_from_events([Segment(10, 19)], 40)
        shifted = labels_from_events([Segment(11, 20)], 40)
        report = check_label_consistency(labels, shifted)
        assert [
            (r.segment.start, r.segment.end, r.direction) for r in report.runs
        ] == [
            (10, 10, "integrated-only"),
            (20, 20, "reconstructed-only"),
        ]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            check_label_consistency(LabelSeries([0, 1]), LabelSeries([0]))


class TestSyntheticSpec:
    def test_signal_coercion(self):
        assert small_spec(anomaly_signal="variance-burst").anomaly_signal is (
            AnomalySignal.VARIANCE_BURST
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(total_points=0),
            dict(n_channels=0),
            dict(event_lengths=(0,)),
            dict(gap_policy=-1),
            dict(signal_strength=0.0),
            dict(total_points=100, event_lengths=(50, 50, 50)),
            dict(gap_policy=0),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "total_points": 500,
                    "event_lengths": [20, 30],
                    "n_channels": 4,
                    "anomaly_signal": "channel-drift",
                    "seed": 7,
                }
            )
        )
        spec = load_synthetic_spec(path)
        assert spec.total_points == 500
        assert spec.gap_policy == 10
        assert spec.anomaly_signal is AnomalySignal.CHANNEL_DRIFT

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "total_points": 500,
                    "event_lengths": [20],
                    "n_channels": 4,
                    "anomaly_signal": "mean-shift",
                }
            )
        )
        with pytest.raises(ValueError, match="seed"):
            load_synthetic_spec(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "total_points": 500,
                    "event_lengths": [20],
                    "n_channels": 4,
                    "anomaly_signal": "mean-shift",
                    "seed": 1,
                    "gap_polcy": 5,
                }
            )
        )
        with pytest.raises(ValueError, match="unknown keys"):
            load_synthetic_spec(path)


class TestPlacement:
    def test_lengths_and_gaps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            events = place_events(300, [10, 20, 5], 10, rng)
            assert [e.length for e in events] == [10, 20, 5]
            for a, b in zip(events, events[1:]):
                assert b.start - a.end - 1 >= 10
            assert events[0].start >= 0
            assert events[-1].end < 300

    def test_tight_fit(self):
        rng = np.random.default_rng(1)
        events = place_events(25, [10, 10], 5, rng)
        assert [(e.start, e.end) for e in events] == [(0, 9), (15, 24)]

    def test_infeasible(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            place_events(24, [10, 10], 5, rng)

    def test_no_events(self):
        rng = np.random.default_rng(3)
        assert place_events(100, [], 10, rng) == []

    def test_placement_spreads_over_series(self):
        rng = np.random.default_rng(4)
        starts = [place_events(1000, [10], 0, rng)[0].start for _ in range(500)]
        # uniform over 991 start positions: both halves should be used
        assert min(starts) < 200
        assert max(starts) > 800


class TestGeneration:
    def test_deterministic(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        assert np.array_equal(a.values, b.values)
        assert a.labels == b.labels

    def test_seed_changes_output(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec(seed=124))
        assert not np.array_equal(a.values, b.values)

    def test_label_runs_reproduce_event_lengths(self):
        frame = generate_synthetic(small_spec())
        assert sorted(e.length for e in frame.labels.events) == sorted(
            small_spec().event_lengths
        )

    def test_labels_only_fast_path_matches(self):
        spec = small_spec(seed=55)
        assert synthetic_labels(spec) == generate_synthetic(spec).labels

    def test_single_event_contamination(self):
        spec = small_spec(
            total_points=500, event_lengths=(50,), seed=9
        )
        frame = generate_synthetic(spec)
        assert frame.labels.contamination_rate == pytest.approx(0.1)

    @pytest.mark.parametrize("signal", list(AnomalySignal))
    def test_signals_disturb_event_windows(self, signal):
        spec = small_spec(
            anomaly_signal=signal, event_lengths=(120, 150), seed=77
        )
        frame = generate_synthetic(spec)
        normal_mask = frame.labels.values == 0
        normal = frame.values[normal_mask]
        mu = normal.mean(axis=0)
        sd = normal.std(axis=0)
        for ev in frame.labels.events:
            window = frame.values[ev.start : ev.end + 1]
            mean_dev = np.abs(window.mean(axis=0) - mu) / sd
            var_ratio = window.std(axis=0) / sd
            assert mean_dev.max() > 1.0 or var_ratio.max() > 2.0

    def test_train_test_split(self):
        spec = small_spec(seed=31)
        train, test = generate_train_test(spec, train_points=800)
        assert train.n_points == 800
        assert test.n_points == spec.total_points
        assert train.labels.n_anomalous == 0
        assert sorted(e.length for e in test.labels.events) == sorted(
            spec.event_lengths
        )
        assert train.n_channels == test.n_channels == spec.n_channels

    def test_train_test_validation(self):
        with pytest.raises(ValueError):
            generate_train_test(small_spec(), train_points=0)
