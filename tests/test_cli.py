"""CLI commands, file outputs and reproducibility."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsadeval.cli
from tsadeval.cli import main
from tsadeval.data_io import load_frame
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.pca_baseline import ScoredModel
from tsadeval.protocols import score_all

from test_golden import CASES as GOLDEN_CASES
from test_golden import INPUTS as GOLDEN_INPUTS

WORKED_LABELS = [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]
WORKED_PREDS = [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]


def write_column(path, name, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name])
        for v in values:
            writer.writerow([v])


def write_frame_csv(path, values, labels=None):
    """A frame file: one cN column per channel, then labels if given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"c{j}" for j in range(values.shape[1])]
        writer.writerow(header + (["label"] if labels is not None else []))
        for i, row in enumerate(values):
            cells = [repr(float(v)) for v in row]
            writer.writerow(cells + ([labels[i]] if labels is not None else []))


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def worked_files(tmp_path):
    labels = tmp_path / "labels.csv"
    preds = tmp_path / "preds.csv"
    write_column(labels, "label", WORKED_LABELS)
    write_column(preds, "prediction", WORKED_PREDS)
    return labels, preds


@pytest.fixture
def spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "total_points": 1500,
                "event_lengths": [40, 60],
                "n_channels": 5,
                "anomaly_signal": "mean-shift",
                "seed": 5,
            }
        )
    )
    return spec


class TestEvaluate:
    def test_predictions_path(self, tmp_path, worked_files, capsys):
        labels, preds = worked_files
        out = tmp_path / "out"
        rc = main(
            [
                "evaluate",
                "--labels",
                str(labels),
                "--predictions",
                str(preds),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "report.csv")
        by_protocol = {r["protocol"]: r for r in rows}
        assert float(by_protocol["point-wise"]["f1"]) == pytest.approx(
            0.285714, abs=1e-6
        )
        assert float(by_protocol["point-adjust"]["f1"]) == pytest.approx(
            0.909091, abs=1e-6
        )
        assert float(by_protocol["composite"]["f1"]) == pytest.approx(
            0.666667, abs=1e-6
        )
        assert by_protocol["point-adjust"]["deprecated_protocol"] == "true"
        assert by_protocol["point-wise"]["deprecated_protocol"] == "false"
        assert by_protocol["point-wise"]["tp_e"] == ""
        assert by_protocol["event-wise"]["fp_e"] == "1"
        report = read_report(out)
        assert report["manifest"]["command"] == "evaluate"
        assert len(report["manifest"]["inputs"]) == 2
        assert "point-wise" in capsys.readouterr().out

    def test_protocol_subset_order(self, tmp_path, worked_files):
        labels, preds = worked_files
        out = tmp_path / "out"
        rc = main(
            [
                "evaluate",
                "--labels",
                str(labels),
                "--predictions",
                str(preds),
                "--protocols",
                "event-wise,point-wise",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "report.csv")
        assert [r["protocol"] for r in rows] == ["event-wise", "point-wise"]

    def test_scores_with_fixed_threshold(self, tmp_path, worked_files):
        labels, _ = worked_files
        scores = tmp_path / "scores.csv"
        write_column(
            scores,
            "score",
            [0.1, 0.2, 0.1, 0.3, 0.2, 0.9, 0.4, 0.3, 0.2, 0.8],
        )
        out = tmp_path / "out"
        rc = main(
            [
                "evaluate",
                "--labels",
                str(labels),
                "--scores",
                str(scores),
                "--threshold-policy",
                "fixed:0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["threshold"] == 0.5
        rows = {r["protocol"]: r for r in report["results"]["rows"]}
        # threshold 0.5 marks exactly points 5 and 9, the worked example
        assert rows["point-wise"]["f1"] == pytest.approx(0.285714, abs=1e-6)

    def test_scores_with_sweep(self, tmp_path, worked_files):
        labels, _ = worked_files
        scores = tmp_path / "scores.csv"
        write_column(
            scores,
            "score",
            [0.1, 0.2, 0.1, 0.8, 0.7, 0.9, 0.8, 0.7, 0.2, 0.1],
        )
        out = tmp_path / "out"
        rc = main(
            [
                "evaluate",
                "--labels",
                str(labels),
                "--scores",
                str(scores),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["threshold"] == pytest.approx(0.7)
        rows = {r["protocol"]: r for r in report["results"]["rows"]}
        assert rows["point-wise"]["f1"] == 1.0

    def test_bad_protocol_name(self, tmp_path, worked_files):
        labels, preds = worked_files
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--labels",
                    str(labels),
                    "--predictions",
                    str(preds),
                    "--protocols",
                    "pointwise",
                ]
            )

    def test_missing_file_is_error_exit(self, tmp_path, worked_files, capsys):
        labels, _ = worked_files
        rc = main(
            [
                "evaluate",
                "--labels",
                str(labels),
                "--predictions",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestAttack:
    def test_single_segment_quick_form(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "attack",
                "--total-points",
                "500",
                "--segment-length",
                "50",
                "--alpha",
                "26",
                "--trials",
                "400",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        results = report["results"]
        assert results["labels"]["n_events"] == 1
        analytic = results["analytic_single_segment"]
        assert analytic["worst_f1_pa"] == 0.8
        assert analytic["prob_perfect_recall"] == pytest.approx(
            1 - 0.9**26, abs=1e-12
        )
        assert analytic["bernoulli-approx"]["prob_zero"] == pytest.approx(
            0.9**26, abs=1e-12
        )
        summary = results["f1_summary"]
        assert summary["point-adjust"]["deprecated_protocol"] is True
        assert summary["point-adjust"]["mean"] > summary["point-wise"]["mean"]
        rows = read_csv_rows(out / "distribution.csv")
        assert rows[0]["s"] == "0"
        assert float(rows[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-9)
        assert "deprecated" in capsys.readouterr().out

    def test_synthetic_spec_source(self, tmp_path, spec_file):
        out = tmp_path / "out"
        rc = main(
            [
                "attack",
                "--synthetic-spec",
                str(spec_file),
                "--alpha",
                "30",
                "--trials",
                "50",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["labels"]["n_events"] == 2
        # multi-event labels have no single-segment analytics
        assert "analytic_single_segment" not in report["results"]
        assert not (out / "distribution.csv").exists()

    def test_labels_file_source(self, tmp_path):
        labels = tmp_path / "labels.csv"
        write_column(labels, "label", [0] * 90 + [1] * 10)
        out = tmp_path / "out"
        rc = main(
            [
                "attack",
                "--labels",
                str(labels),
                "--alpha",
                "5",
                "--trials",
                "100",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert read_report(out)["results"]["labels"]["n_anomalous"] == 10

    def test_conflicting_sources_rejected(self, tmp_path, spec_file, capsys):
        labels = tmp_path / "labels.csv"
        write_column(labels, "label", [0, 1])
        rc = main(
            [
                "attack",
                "--labels",
                str(labels),
                "--synthetic-spec",
                str(spec_file),
                "--alpha",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestAttackCdf:
    def test_distribution_file(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "attack-cdf",
                "--total-points",
                "500",
                "--segment-length",
                "50",
                "--alpha",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "distribution.csv")
        assert len(rows) == 6
        assert float(rows[0]["probability"]) == pytest.approx(
            0.59049, abs=1e-9
        )
        assert float(rows[0]["f1_value"]) == 0.0
        assert read_report(out)["results"]["prob_zero"] == pytest.approx(
            0.59049, abs=1e-9
        )

    def test_exact_model(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "attack-cdf",
                "--total-points",
                "500",
                "--segment-length",
                "50",
                "--alpha",
                "5",
                "--model",
                "exact-hypergeometric",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        import math

        exact = math.comb(450, 5) / math.comb(500, 5)
        assert read_report(out)["results"]["prob_zero"] == pytest.approx(
            exact, abs=1e-12
        )


class TestAttackWorst:
    def test_table(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "attack-worst",
                "--segment-length",
                "50",
                "--contamination",
                "0.1",
                "--alpha-max",
                "60",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "worst_case.csv")
        assert len(rows) == 60
        assert float(rows[25]["worst_f1_pa"]) == 0.8  # alpha = 26
        assert float(rows[0]["worst_f1_pa"]) == 1.0


class TestFarStudy:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["far-study", "--out", str(out)])
        assert rc == 0
        rows = read_csv_rows(out / "far_study.csv")
        assert len(rows) == 50
        header = list(rows[0].keys())
        assert header == [
            "far",
            "f1_n10000_a5000",
            "f1_n10000_a1000",
            "f1_n10000_a100",
        ]
        for row in rows:
            assert (
                float(row["f1_n10000_a5000"])
                > float(row["f1_n10000_a1000"])
                > float(row["f1_n10000_a100"])
            )

    def test_custom_shapes(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "far-study",
                "--shapes",
                "100:50",
                "--far-points",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert len(read_csv_rows(out / "far_study.csv")) == 5


class TestSynth:
    def test_frame_and_sidecar(self, tmp_path, spec_file):
        out_file = tmp_path / "frame.csv"
        rc = main(["synth", "--spec", str(spec_file), "--out-file", str(out_file)])
        assert rc == 0
        frame = load_frame(out_file)
        assert frame.n_points == 1500
        assert frame.labels is not None
        assert frame.labels.n_events == 2
        sidecar = json.loads(
            (tmp_path / "frame.csv.manifest.json").read_text()
        )
        assert sidecar["manifest"]["config"]["spec"]["seed"] == 5
        # no train set was asked for
        assert sidecar["manifest"]["config"]["train_points"] == 0
        assert str(out_file) in sidecar["outputs"]

    def test_train_test_and_events(self, tmp_path, spec_file):
        out_file = tmp_path / "test.csv"
        train_file = tmp_path / "train.csv"
        events_file = tmp_path / "events.csv"
        rc = main(
            [
                "synth",
                "--spec",
                str(spec_file),
                "--out-file",
                str(out_file),
                "--train-points",
                "1000",
                "--train-out",
                str(train_file),
                "--events-out",
                str(events_file),
            ]
        )
        assert rc == 0
        train = load_frame(train_file)
        assert train.n_points == 1000
        assert train.labels.n_anomalous == 0
        with open(events_file) as fh:
            assert fh.readline().strip() == "start,end"

    def test_train_points_requires_train_out(self, tmp_path, spec_file, capsys):
        rc = main(
            [
                "synth",
                "--spec",
                str(spec_file),
                "--out-file",
                str(tmp_path / "t.csv"),
                "--train-points",
                "100",
            ]
        )
        assert rc == 2
        assert "train-out" in capsys.readouterr().err


class TestBaseline:
    def test_end_to_end(self, tmp_path, spec_file):
        test_file = tmp_path / "test.csv"
        train_file = tmp_path / "train.csv"
        main(
            [
                "synth",
                "--spec",
                str(spec_file),
                "--out-file",
                str(test_file),
                "--train-points",
                "1200",
                "--train-out",
                str(train_file),
            ]
        )
        out = tmp_path / "out"
        rc = main(
            [
                "baseline",
                "--train",
                str(train_file),
                "--test",
                str(test_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["n_components"] >= 1
        rows = {r["protocol"]: r for r in report["results"]["rows"]}
        # threshold is swept for point-wise F1; event-aware protocols are
        # reported at that same threshold, so assert recall, not their F1
        assert rows["point-wise"]["f1"] > 0.6
        assert rows["event-wise"]["recall"] == 1.0
        model = ScoredModel.load(out / "model.npz")
        assert model.smooth_window == 5
        scores = read_csv_rows(out / "scores.csv")
        assert len(scores) == 1500

    def test_unlabelled_test_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name in ("train.csv", "test.csv"):
            path = tmp_path / name
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["c0", "c1"])
                for row in rng.standard_normal((50, 2)):
                    writer.writerow([repr(float(v)) for v in row])
        rc = main(
            [
                "baseline",
                "--train",
                str(tmp_path / "train.csv"),
                "--test",
                str(tmp_path / "test.csv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "no label column" in capsys.readouterr().err


class TestCheckLabels:
    def test_consistent(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        events = tmp_path / "events.csv"
        write_column(labels, "label", [0, 1, 1, 0, 0, 1])
        events.write_text("start,end\n1,2\n5,5\n")
        out = tmp_path / "out"
        rc = main(
            [
                "check-labels",
                "--labels",
                str(labels),
                "--events",
                str(events),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["is_consistent"] is True
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_runs_reported(self, tmp_path):
        labels = tmp_path / "labels.csv"
        events = tmp_path / "events.csv"
        write_column(labels, "label", [0, 1, 1, 0, 0, 0])
        events.write_text("start,end\n2,3\n")
        out = tmp_path / "out"
        rc = main(
            [
                "check-labels",
                "--labels",
                str(labels),
                "--events",
                str(events),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        assert report["results"]["is_consistent"] is False
        runs = report["results"]["runs"]
        assert {r["direction"] for r in runs} == {
            "integrated-only",
            "reconstructed-only",
        }

    def test_end_exclusive(self, tmp_path):
        labels = tmp_path / "labels.csv"
        events = tmp_path / "events.csv"
        write_column(labels, "label", [0, 1, 1, 0])
        events.write_text("start,end\n1,3\n")
        out = tmp_path / "out"
        rc = main(
            [
                "check-labels",
                "--labels",
                str(labels),
                "--events",
                str(events),
                "--end-exclusive",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert read_report(out)["results"]["is_consistent"] is True


INPUT_ERRORS = {
    "evaluate-missing-file": [
        "evaluate", "--labels", "labels.csv", "--predictions", "nope.csv",
    ],
    "evaluate-label-header-as-predictions": [
        "evaluate", "--labels", "labels.csv", "--predictions", "labels.csv",
    ],
    "attack-conflicting-sources": [
        "attack", "--labels", "labels.csv", "--synthetic-spec", "spec.json",
        "--alpha", "1",
    ],
    "attack-alpha-exceeds-series": [
        "attack", "--labels", "labels.csv", "--alpha", "11", "--trials", "5",
    ],
    "attack-zero-alpha-single-event": [
        "attack", "--total-points", "10", "--segment-length", "2",
        "--alpha", "0", "--trials", "5",
    ],
    "attack-zero-alpha-multi-event": [
        "attack", "--labels", "events3.csv", "--alpha", "0", "--trials", "5",
    ],
    "attack-alpha-exceeds-multi-event": [
        "attack", "--labels", "events3.csv", "--alpha", "13", "--trials", "5",
    ],
    "attack-zero-trials": [
        "attack", "--labels", "events3.csv", "--alpha", "2", "--trials", "0",
    ],
    "attack-negative-seed": [
        "attack", "--labels", "events3.csv", "--alpha", "2", "--seed", "-1",
    ],
    "attack-cdf-alpha-exceeds-series": [
        "attack-cdf", "--total-points", "10", "--segment-length", "2",
        "--alpha", "11",
    ],
    "attack-cdf-segment-exceeds-series": [
        "attack-cdf", "--total-points", "10", "--segment-length", "20",
        "--alpha", "2",
    ],
    "attack-zero-segment-length": [
        "attack", "--total-points", "10", "--segment-length", "0",
        "--alpha", "2",
    ],
    "attack-zero-total-points": [
        "attack", "--total-points", "0", "--segment-length", "2",
        "--alpha", "1",
    ],
    "attack-cdf-negative-total-points": [
        "attack-cdf", "--total-points", "-5", "--segment-length", "2",
        "--alpha", "1",
    ],
    "attack-total-points-without-segment-length": [
        "attack", "--total-points", "10", "--alpha", "1",
    ],
    "evaluate-score-field-over-csv-limit": [
        "evaluate", "--labels", "labels.csv", "--scores", "bigcell.csv",
    ],
    "evaluate-header-field-over-csv-limit": [
        "evaluate", "--labels", "bighead.csv", "--predictions", "labels.csv",
    ],
    "attack-worst-zero-alpha-step": [
        "attack-worst", "--segment-length", "5", "--contamination", "0.1",
        "--alpha-max", "4", "--alpha-step", "0",
    ],
    "attack-worst-empty-alpha-range": [
        "attack-worst", "--segment-length", "5", "--contamination", "0.1",
        "--alpha-min", "5", "--alpha-max", "4",
    ],
    "far-study-min-above-max": [
        "far-study", "--far-min", "0.2", "--far-max", "0.1",
    ],
    "attack-worst-zero-segment-length": [
        "attack-worst", "--segment-length", "0", "--contamination", "0.1",
        "--alpha-max", "4",
    ],
    "attack-worst-zero-alpha-min": [
        "attack-worst", "--segment-length", "5", "--contamination", "0.1",
        "--alpha-min", "0", "--alpha-max", "4",
    ],
    "attack-worst-contamination-above-one": [
        "attack-worst", "--segment-length", "5", "--contamination", "1.5",
        "--alpha-max", "4",
    ],
    "attack-worst-nan-contamination": [
        "attack-worst", "--segment-length", "5", "--contamination", "nan",
        "--alpha-max", "4",
    ],
    "far-study-recall-above-one": ["far-study", "--recall", "1.5"],
    "far-study-nan-recall": ["far-study", "--recall", "nan"],
    "far-study-one-far-point": ["far-study", "--far-points", "1"],
    "far-study-far-max-above-one": ["far-study", "--far-max", "1.5"],
    "far-study-nan-far-min": ["far-study", "--far-min", "nan"],
    "evaluate-predictions-with-fixed-policy": [
        "evaluate", "--labels", "labels.csv", "--predictions", "preds.csv",
        "--threshold-policy", "fixed:0.5",
    ],
    "evaluate-predictions-with-sweep-policy": [
        "evaluate", "--labels", "labels.csv", "--predictions", "preds.csv",
        "--threshold-policy", "best-pw-f1",
    ],
    "evaluate-scores-length-mismatch": [
        "evaluate", "--labels", "labels.csv", "--scores", "scores3.csv",
    ],
    "evaluate-fixed-scores-length-mismatch": [
        "evaluate", "--labels", "labels.csv", "--scores", "scores3.csv",
        "--threshold-policy", "fixed:0.5",
    ],
    "evaluate-predictions-length-mismatch": [
        "evaluate", "--labels", "labels.csv", "--predictions", "preds3.csv",
    ],
    "baseline-test-channels-differ": [
        "baseline", "--train", "train.csv", "--test", "wide.csv",
    ],
    "baseline-bad-smooth-window-before-loading": [
        "baseline", "--train", "nope.csv", "--test", "nope.csv",
        "--smooth-window", "0",
    ],
    "baseline-bad-variance-target-before-loading": [
        "baseline", "--train", "nope.csv", "--test", "nope.csv",
        "--variance-target", "2.0",
    ],
    "baseline-bad-clip-low-before-loading": [
        "baseline", "--train", "nope.csv", "--test", "nope.csv",
        "--clip-low", "1.0",
    ],
    "baseline-clip-high-below-clip-low-before-loading": [
        "baseline", "--train", "nope.csv", "--test", "nope.csv",
        "--clip-low", "0.9", "--clip-high", "0.1",
    ],
    "baseline-one-row-train": [
        "baseline", "--train", "train1.csv", "--test", "labelled.csv",
    ],
    "baseline-unlabelled-test": [
        "baseline", "--train", "train.csv", "--test", "test.csv",
    ],
    "baseline-model-out-in-missing-dir": [
        "baseline", "--train", "train.csv", "--test", "labelled.csv",
        "--model-out", "nodir/model.npz",
    ],
    "check-labels-missing-events": [
        "check-labels", "--labels", "labels.csv", "--events", "nope.csv",
    ],
    "check-labels-event-past-series-end": [
        "check-labels", "--labels", "labels4.csv", "--events", "events.csv",
    ],
    "synth-events-out-in-missing-dir": [
        "synth", "--spec", "spec.json", "--out-file", "synth.csv",
        "--events-out", "nodir/e.csv",
    ],
    "synth-train-out-without-train-points": [
        "synth", "--spec", "spec.json", "--out-file", "synth.csv",
        "--train-out", "synth_train.csv",
    ],
    "synth-zero-train-points": [
        "synth", "--spec", "spec.json", "--out-file", "synth.csv",
        "--train-points", "0", "--train-out", "t.csv",
    ],
    "synth-negative-train-points": [
        "synth", "--spec", "spec.json", "--out-file", "synth.csv",
        "--train-points", "-5", "--train-out", "t.csv",
    ],
    "synth-mistyped-spec": [
        "synth", "--spec", "mistyped.json", "--out-file", "synth.csv",
    ],
    "attack-mistyped-spec": [
        "attack", "--synthetic-spec", "mistyped.json", "--alpha", "1",
    ],
    "synth-out-file-in-missing-dir": [
        "synth", "--spec", "spec.json", "--train-points", "500",
        "--train-out", "synth_train.csv", "--out-file", "nodir/synth.csv",
    ],
    "synth-frame-and-events-at-one-path": [
        "synth", "--spec", "spec.json", "--out-file", "same.csv",
        "--events-out", "same.csv",
    ],
    "synth-out-file-is-a-directory": [
        "synth", "--spec", "spec.json", "--out-file", "isdir.csv",
        "--train-points", "300", "--train-out", "t.csv",
    ],
}

# what the message of a check that names its option, or its file and
# line, must say
OPTION_ERRORS = {
    "attack-alpha-exceeds-series": "--alpha must lie in [1, 10], got 11",
    "attack-zero-alpha-single-event": "--alpha must lie in [1, 10], got 0",
    "attack-zero-alpha-multi-event": "--alpha must lie in [1, 12], got 0",
    "attack-alpha-exceeds-multi-event": "--alpha must lie in [1, 12], got 13",
    "attack-zero-trials": "--trials must be >= 1, got 0",
    "attack-negative-seed": "--seed must be >= 0, got -1",
    "attack-worst-zero-alpha-step": "--alpha-step must be >= 1, got 0",
    "attack-cdf-alpha-exceeds-series": "--alpha must lie in [1, 10], got 11",
    "attack-cdf-segment-exceeds-series": (
        "--segment-length must lie in [1, 10], got 20"
    ),
    "attack-zero-segment-length": (
        "--segment-length must lie in [1, 10], got 0"
    ),
    "attack-zero-total-points": "--total-points must be >= 1, got 0",
    "attack-cdf-negative-total-points": "--total-points must be >= 1, got -5",
    "attack-total-points-without-segment-length": (
        "--total-points and --segment-length go together"
    ),
    "evaluate-score-field-over-csv-limit": (
        "bigcell.csv: line 3: field larger than field limit "
        f"({csv.field_size_limit()})"
    ),
    "evaluate-header-field-over-csv-limit": (
        "bighead.csv: line 1: field larger than field limit "
        f"({csv.field_size_limit()})"
    ),
    "check-labels-event-past-series-end": (
        "events.csv: line 3: event (3, 9) exceeds series of length 4"
    ),
    "synth-frame-and-events-at-one-path": "same.csv: two outputs at one path",
    "synth-out-file-is-a-directory": "Is a directory: 'isdir.csv'",
    "synth-train-out-without-train-points": (
        "--train-points and --train-out go together"
    ),
    "synth-zero-train-points": "--train-points must be >= 1, got 0",
    "synth-negative-train-points": "--train-points must be >= 1, got -5",
    "attack-worst-zero-segment-length": "--segment-length must be >= 1, got 0",
    "attack-worst-zero-alpha-min": "--alpha-min must be >= 1, got 0",
    "attack-worst-contamination-above-one": (
        "--contamination must lie in [0, 1], got 1.5"
    ),
    "attack-worst-nan-contamination": (
        "--contamination must lie in [0, 1], got nan"
    ),
    "far-study-min-above-max": "--far-min must lie in (0, 0.1), got 0.2",
    "far-study-recall-above-one": "--recall must lie in [0, 1], got 1.5",
    "far-study-nan-recall": "--recall must lie in [0, 1], got nan",
    "far-study-one-far-point": "--far-points must be >= 2, got 1",
    "far-study-far-max-above-one": "--far-max must lie in (0, 1], got 1.5",
    "far-study-nan-far-min": "--far-min must lie in (0, 0.2), got nan",
    "evaluate-predictions-with-fixed-policy": (
        "--threshold-policy applies only to --scores"
    ),
    "evaluate-predictions-with-sweep-policy": (
        "--threshold-policy applies only to --scores"
    ),
    "evaluate-scores-length-mismatch": (
        "scores3.csv: 3 scores, but labels.csv holds 10 labels"
    ),
    "evaluate-fixed-scores-length-mismatch": (
        "scores3.csv: 3 scores, but labels.csv holds 10 labels"
    ),
    "evaluate-predictions-length-mismatch": (
        "preds3.csv: 3 predictions, but labels.csv holds 10 labels"
    ),
    "baseline-test-channels-differ": "wide.csv: 3 channels, but train.csv holds 2",
    "baseline-one-row-train": "train1.csv: 1 rows, but the fit needs at least 2",
    # each PCA option is refused before either missing frame is read
    "baseline-bad-smooth-window-before-loading": (
        "--smooth-window must be >= 1, got 0"
    ),
    "baseline-bad-variance-target-before-loading": (
        "--variance-target must lie in (0, 1], got 2.0"
    ),
    "baseline-bad-clip-low-before-loading": (
        "--clip-low must lie in [0, 1), got 1.0"
    ),
    "baseline-clip-high-below-clip-low-before-loading": (
        "--clip-high must lie in (0.9, 1], got 0.1"
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_leaves_out_uncreated(
    case, tmp_path, spec_file, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS)
    write_column(
        tmp_path / "events3.csv", "label", [0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0]
    )
    write_column(tmp_path / "labels4.csv", "label", [1, 1, 0, 1])
    write_column(tmp_path / "preds.csv", "prediction", WORKED_PREDS)
    write_column(tmp_path / "preds3.csv", "prediction", [0, 1, 0])
    write_column(tmp_path / "scores3.csv", "score", [0.1, 0.9, 0.2])
    (tmp_path / "events.csv").write_text("start,end\n0,1\n3,9\n")
    (tmp_path / "isdir.csv").mkdir()
    # float() reads the padded cell, csv.reader refuses it and the header
    limit = csv.field_size_limit()
    (tmp_path / "bigcell.csv").write_text(f"score\n0.5\n{' ' * limit}1\n")
    (tmp_path / "bighead.csv").write_text("l" * (limit + 1) + "\n1\n")
    rng = np.random.default_rng(0)
    for name, labels in [
        ("train.csv", None), ("test.csv", None), ("labelled.csv", WORKED_LABELS)
    ]:
        write_frame_csv(tmp_path / name, rng.standard_normal((10, 2)), labels)
    write_frame_csv(
        tmp_path / "wide.csv", rng.standard_normal((10, 3)), WORKED_LABELS
    )
    write_frame_csv(tmp_path / "train1.csv", rng.standard_normal((1, 2)))
    spec = json.loads(spec_file.read_text())
    (tmp_path / "mistyped.json").write_text(
        json.dumps({**spec, "total_points": str(spec["total_points"])})
    )
    argv = INPUT_ERRORS[case]
    if argv[0] != "synth":  # synth writes next to --out-file, not into --out
        argv = [*argv, "--out", "out"]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # an option's own check names the option, an input's check its line
    if case in OPTION_ERRORS:
        assert OPTION_ERRORS[case] in err
    # a spec's own check names the file and the key
    if "mistyped.json" in argv:
        assert "mistyped.json: total_points" in err
    # nothing is written, and an output in a missing directory is named as
    # given, not by the temp file it would have been written through
    assert sorted(tmp_path.rglob("*")) == before
    for arg in argv:
        if arg.startswith("nodir/"):
            assert arg in err and ".tmp" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # out/ exists, and the model would overwrite the scores in it
        (
            ["--out", "out", "--model-out", "out/scores.csv"],
            "out/scores.csv: two outputs at one path",
        ),
        # --out is a file: the model must not be written before that shows
        (["--out", "labels.csv", "--model-out", "m.npz"], "File exists: 'labels.csv'"),
    ],
    ids=["model-out-over-scores", "out-is-a-file"],
)
def test_baseline_bad_destination_writes_nothing(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS)
    rng = np.random.default_rng(0)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((10, 2)))
    write_frame_csv(
        tmp_path / "test.csv", rng.standard_normal((10, 2)), WORKED_LABELS
    )
    before = sorted(tmp_path.rglob("*"))
    argv = ["baseline", "--train", "train.csv", "--test", "test.csv", *argv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_baseline_model_out_in_new_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((10, 2)))
    write_frame_csv(
        tmp_path / "test.csv", rng.standard_normal((10, 2)), WORKED_LABELS
    )
    argv = ["baseline", "--train", "train.csv", "--test", "test.csv"]
    assert main([*argv, "--out", "run1", "--model-out", "run1/m.npz"]) == 0
    assert ScoredModel.load(tmp_path / "run1" / "m.npz").smooth_window == 5
    assert read_report(tmp_path / "run1")["results"]["model_path"] == "m.npz"


def test_baseline_scores_as_evaluate_does(tmp_path, spec_file, monkeypatch):
    # baseline reports exactly what evaluate reports on its own scores.csv
    monkeypatch.chdir(tmp_path)
    assert main([
        "synth", "--spec", str(spec_file), "--out-file", "test.csv",
        "--train-points", "1200", "--train-out", "train.csv",
    ]) == 0

    def both(*policy):
        baseline = ["baseline", "--train", "train.csv", "--test", "test.csv"]
        assert main([*baseline, *policy, "--out", "b"]) == 0
        evaluate = ["evaluate", "--labels", "test.csv", "--scores", "b/scores.csv"]
        assert main([*evaluate, *policy, "--out", "e"]) == 0
        b, e = tmp_path / "b", tmp_path / "e"
        assert (e / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        b, e = read_report(b)["results"], read_report(e)["results"]
        assert e["threshold"] == b["threshold"]
        assert e["rows"] == b["rows"]

    both()
    # a fixed threshold at the median score flags half the points
    scores = [float(r["score"]) for r in read_csv_rows(tmp_path / "b" / "scores.csv")]
    both("--threshold-policy", f"fixed:{np.median(scores)}")


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_compute_writes_nothing(case, tmp_path, monkeypatch):
    # every file is written by the one writer after the compute step; main
    # then runs each command so that the next can read what it wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TSADEVAL_OUT", raising=False)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    for argv in GOLDEN_CASES[case][0]:
        args = tsadeval.cli._build_parser().parse_args(argv)
        assert "func" not in vars(args)
        before = sorted(tmp_path.rglob("*"))
        args.compute(args)
        assert sorted(tmp_path.rglob("*")) == before
        assert main(argv) == 0


def test_attack_checks_alpha_before_any_trial(tmp_path, monkeypatch, capsys):
    # an all-anomalous single event: trials would also warn about the FAR
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before alpha was checked")

    monkeypatch.setattr(tsadeval.cli, "random_flag_trials", no_trials)
    argv = [
        "attack", "--total-points", "10", "--segment-length", "10",
        "--alpha", "0", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--alpha must lie in [1, 10], got 0" in err
    assert "false_alarm_rate" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--labels", "labels.csv", "--predictions", "labels.csv"],
        ["attack", "--labels", "labels.csv", "--alpha", "2", "--trials", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_repeated_protocol_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS)
    argv = [*argv, "--protocols", "point-adjust,composite,point-adjust"]
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out", "out"])
    assert exited.value.code == 2
    assert "'point-adjust' given twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


EVALUATE_PREDICTIONS = [
    "evaluate", "--labels", "labels.csv", "--predictions", "labels.csv",
]

# argparse-level checks: the value of one option cannot be parsed
UNPARSABLE_OPTIONS = {
    "no-protocols": (
        [*EVALUATE_PREDICTIONS, "--protocols", ","], "no protocols given"
    ),
    "unknown-threshold-policy": (
        [*EVALUATE_PREDICTIONS, "--threshold-policy", "median"],
        "threshold policy must be 'best-pw-f1' or 'fixed:<value>', "
        "got 'median'",
    ),
    "shape-without-colon": (
        ["far-study", "--shapes", "5"],
        "bad shape '5'; expected n_normal:n_anomalous",
    ),
    "no-shapes": (["far-study", "--shapes", ","], "no shapes given"),
    "empty-shape": (
        ["far-study", "--shapes", "0:0"],
        "bad shape '0:0': dataset must hold at least one point",
    ),
    "negative-shape": (
        ["far-study", "--shapes=-1:5"],
        "bad shape '-1:5': counts must be non-negative",
    ),
}


@pytest.mark.parametrize("case", sorted(UNPARSABLE_OPTIONS))
def test_unparsable_option_is_usage_error(
    case, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS)
    argv, message = UNPARSABLE_OPTIONS[case]
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out", "out"])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The two commands that binarize scores by a threshold policy
THRESHOLD_COMMANDS = [
    ["evaluate", "--labels", "labels.csv", "--scores", "scores.csv"],
    ["baseline", "--train", "train.csv", "--test", "test.csv"],
]


@pytest.mark.parametrize("argv", THRESHOLD_COMMANDS, ids=lambda argv: argv[0])
def test_nan_fixed_threshold_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # float("nan") parses, but a NaN threshold flags nothing and is not
    # valid JSON; an infinite one is a threshold the sweep can pick itself
    monkeypatch.chdir(tmp_path)
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS * 4)
    write_column(tmp_path / "scores.csv", "score", [i / 40 for i in range(40)])
    rng = np.random.default_rng(3)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((40, 3)))
    write_frame_csv(
        tmp_path / "test.csv", rng.standard_normal((40, 3)), WORKED_LABELS * 4
    )
    # a value float() cannot read is refused the same way
    for policy in ("fixed:nan", "fixed:-NaN", "fixed:abc"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threshold-policy", policy, "--out", "nan"])
        assert exc.value.code == 2
        assert f"bad fixed threshold in '{policy}'" in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()

    def threshold_in(out):
        # JSON has no Infinity: report.json must parse without it
        def reject(constant):
            raise ValueError(f"{out}/report.json holds {constant}")

        text = (tmp_path / out / "report.json").read_text()
        return json.loads(text, parse_constant=reject)["results"]["threshold"]

    for policy in ("fixed:inf", "fixed:-inf"):
        assert main([*argv, "--threshold-policy", policy, "--out", "inf"]) == 0
        assert threshold_in("inf") == policy.split(":")[1]
    # with no anomalies every candidate scores F1 0, and the tie goes to
    # the largest threshold, +inf
    write_column(tmp_path / "labels.csv", "label", [0] * 40)
    write_frame_csv(tmp_path / "test.csv", rng.standard_normal((40, 3)), [0] * 40)
    assert main([*argv, "--out", "normal"]) == 0
    assert threshold_in("normal") == "inf"


@pytest.mark.parametrize("argv", THRESHOLD_COMMANDS, ids=lambda argv: argv[0])
def test_explicit_best_pw_f1_matches_default(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TSADEVAL_TIMESTAMP", "2026-08-16T00:00:00+00:00")
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS * 4)
    write_column(tmp_path / "scores.csv", "score", [i / 40 for i in range(40)])
    rng = np.random.default_rng(3)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((40, 3)))
    write_frame_csv(
        tmp_path / "test.csv", rng.standard_normal((40, 3)), WORKED_LABELS * 4
    )
    assert main([*argv, "--out", "default"]) == 0
    explicit = [*argv, "--threshold-policy", "best-pw-f1", "--out", "explicit"]
    assert main(explicit) == 0
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "explicit").iterdir())
    for name in names:
        default = (tmp_path / "default" / name).read_bytes()
        given = (tmp_path / "explicit" / name).read_bytes()
        if name == "report.json":
            # the manifest records the command line, which differs
            default, given = json.loads(default), json.loads(given)
            del default["manifest"]["argv"], given["manifest"]["argv"]
        assert given == default


@pytest.mark.parametrize("argv", THRESHOLD_COMMANDS, ids=lambda argv: argv[0])
def test_no_normal_points_warned_once_per_run(argv, tmp_path, monkeypatch):
    # evaluate and baseline score four protocols after a sweep, and each
    # step would warn about the all-anomalous labels on its own
    monkeypatch.chdir(tmp_path)
    labels = [1] * 40
    write_column(tmp_path / "labels.csv", "label", labels)
    write_column(tmp_path / "scores.csv", "score", [i / 40 for i in range(40)])
    rng = np.random.default_rng(1)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((40, 3)))
    write_frame_csv(tmp_path / "test.csv", rng.standard_normal((40, 3)), labels)
    argv = [*argv, "--out", "out"]

    def warned(caught):
        return sum("no normal points" in str(w.message) for w in caught)

    # "always" shows every call, so the count is the CLI's own doing; the
    # second run shows that nothing is remembered from the first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            assert main(argv) == 0
            assert warned(caught) == 1
            caught.clear()
        score_all(LabelSeries(labels), PredictionSeries(labels))
        assert warned(caught) == 4


# Every command runs without importing scipy, each on small inputs written
# by the test below: attack-cdf under both models and a single-event
# attack, with its analytic block, among them. Every command but synth
# writes into --out.
WITHOUT_SCIPY = [
    ["synth", "--spec", "spec.json", "--out-file", "synth.csv",
     "--train-points", "50", "--train-out", "synth_train.csv"],
    ["evaluate", "--labels", "labels.csv", "--scores", "scores.csv",
     "--out", "out"],
    ["check-labels", "--labels", "labels.csv", "--events", "events.csv",
     "--out", "out"],
    ["baseline", "--train", "train.csv", "--test", "test.csv",
     "--out", "out"],
    ["far-study", "--far-points", "5", "--out", "out"],
    ["attack-worst", "--segment-length", "5", "--contamination", "0.1",
     "--alpha-max", "10", "--out", "out"],
    ["attack", "--synthetic-spec", "spec.json", "--alpha", "20",
     "--trials", "10", "--out", "out"],
    ["attack", "--total-points", "100", "--segment-length", "10",
     "--alpha", "3", "--trials", "10", "--out", "out"],
    ["attack-cdf", "--total-points", "100", "--segment-length", "10",
     "--alpha", "3", "--model", "bernoulli-approx", "--out", "out"],
    ["attack-cdf", "--total-points", "100", "--segment-length", "10",
     "--alpha", "3", "--model", "exact-hypergeometric", "--out", "out"],
]
IMPORT_GUARD = """
import json, sys

def assert_no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{after} imported {loaded[:3]}"

import tsadeval.cli
assert_no_scipy("import tsadeval.cli")
from tsadeval.cli import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
assert_no_scipy("--help")
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert_no_scipy(argv[0])
"""


def test_no_command_imports_scipy(tmp_path, spec_file):
    # a fresh interpreter: other tests have already imported scipy here
    write_column(tmp_path / "labels.csv", "label", WORKED_LABELS)
    write_column(tmp_path / "scores.csv", "score", [i / 10 for i in range(10)])
    (tmp_path / "events.csv").write_text("start,end\n3,7\n")
    rng = np.random.default_rng(2)
    write_frame_csv(tmp_path / "train.csv", rng.standard_normal((60, 3)))
    write_frame_csv(
        tmp_path / "test.csv", rng.standard_normal((60, 3)), WORKED_LABELS * 6
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD,
         json.dumps(WITHOUT_SCIPY)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


class TestReproducibility:
    def test_attack_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSADEVAL_TIMESTAMP", "2026-08-16T00:00:00+00:00")
        args = [
            "attack",
            "--total-points",
            "300",
            "--segment-length",
            "30",
            "--alpha",
            "10",
            "--trials",
            "200",
            "--seed",
            "5",
        ]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            monkeypatch.setenv("TSADEVAL_OUT", str(out))
            monkeypatch.chdir(tmp_path)
            assert main(args) == 0
            outs.append(out)
        for fname in ("report.json", "distribution.csv"):
            assert (outs[0] / fname).read_bytes() == (
                outs[1] / fname
            ).read_bytes()

    def test_manifest_fields(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSADEVAL_TIMESTAMP", "2026-08-16T00:00:00+00:00")
        out = tmp_path / "out"
        main(
            [
                "attack-cdf",
                "--total-points",
                "100",
                "--segment-length",
                "10",
                "--alpha",
                "3",
                "--out",
                str(out),
            ]
        )
        manifest = read_report(out)["manifest"]
        assert set(manifest) == {
            "command",
            "argv",
            "config",
            "seeds",
            "inputs",
            "version",
            "timestamp",
        }
        assert manifest["timestamp"] == "2026-08-16T00:00:00+00:00"
        from tsadeval import __version__

        assert manifest["version"] == __version__
