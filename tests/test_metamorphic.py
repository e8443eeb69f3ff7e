"""Metamorphic relations of the count producers: no oracle needed.

Every protocol reads events and predicted segments, never their order in
time, so reversing a series leaves every count unchanged. Two series
joined by one normal point that no output flags keep their events and
predicted segments apart, so each count of the join is the sum of the
two. For a sweep, the joining point scores below every other point, so
no threshold but the last flags it.
"""

import numpy as np
from hypothesis import given, settings

from tsadeval import adversary
from tsadeval.cli import main
from tsadeval.data_io import synthetic_labels
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.protocols import (
    _block_counts,
    _prediction_counts,
    _sweep_counts,
)

from test_adversary import CRITERION_05_SPEC
from test_golden import LABELS, PREDICTIONS, SCORES
from test_pca_baseline import scored_layouts
from test_protocols import alarm_blocks, flag_pairs


def reversed_block(labels, alarms):
    """The labels reversed in time, and each row's alarms mirrored into
    ascending order."""
    mirrored = (len(labels) - 1 - alarms)[:, ::-1]
    return LabelSeries(labels.values[::-1]), np.ascontiguousarray(mirrored)


def assert_counts_equal(got, expected):
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert np.asarray(got[name]).dtype == np.asarray(value).dtype, name
        assert np.array_equal(got[name], value), name


def joined(first, second):
    """Each count of two series joined by one normal point that no output
    flags: the sum of their counts."""
    return {name: first[name] + second[name] for name in first}


def block(values, rows):
    return LabelSeries(values), np.array(rows, dtype=np.int64).reshape(
        len(rows), -1
    )


class TestTimeReversal:
    @settings(max_examples=300, deadline=None)
    @given(flag_pairs())
    def test_prediction_counts(self, pair):
        labels, preds = pair
        forward = _prediction_counts(
            LabelSeries(labels), PredictionSeries(preds)
        )
        backward = _prediction_counts(
            LabelSeries(labels[::-1]), PredictionSeries(preds[::-1])
        )
        assert backward == forward

    @settings(max_examples=300, deadline=None)
    @given(scored_layouts())
    def test_sweep_counts(self, layout):
        scores, labels = (np.array(v) for v in layout)
        thresholds, forward = _sweep_counts(scores, LabelSeries(labels))
        reversed_thresholds, backward = _sweep_counts(
            scores[::-1], LabelSeries(labels[::-1])
        )
        assert np.array_equal(reversed_thresholds, thresholds)
        # thresholds and every candidate's five counts
        assert_counts_equal(backward, forward)

    @settings(max_examples=300, deadline=None)
    @given(alarm_blocks())
    def test_block_counts(self, drawn):
        labels, alarms = block(*drawn)
        assert_counts_equal(
            _block_counts(*reversed_block(labels, alarms)),
            _block_counts(labels, alarms),
        )

    def test_block_counts_at_attack_scale(self):
        # one full block of the attack-mix workload: 65 rows of 1000
        # alarms over criterion 05's 450k-point mix
        labels = synthetic_labels(CRITERION_05_SPEC)
        blocks = adversary._alarm_blocks(len(labels), 1000, 65, 11)
        (_, alarms), = blocks
        assert alarms.shape == (65, 1000)
        forward = _block_counts(labels, alarms)
        assert forward["tp_e"].sum() > 0 and forward["fp_e"].sum() > 0
        backward = _block_counts(*reversed_block(labels, alarms))
        assert_counts_equal(backward, forward)

    def test_sweep_counts_at_sweep_scale(self):
        # evaluate-sweep's shape: 50k points, 25 events of 60-140 points
        # and distinct gamma scores, higher inside events
        rng = np.random.default_rng(26)
        n = 50_000
        labels = np.zeros(n, dtype=np.int8)
        slot = n // 25
        for begin in range(0, n, slot):
            length = int(rng.integers(60, 141))
            start = begin + int(rng.integers(0, slot - length))
            labels[start : start + length] = 1
        scores = rng.gamma(2.0, 1.0, size=n) + 2.5 * labels
        assert np.unique(scores).size == n
        assert LabelSeries(labels).n_events == 25
        thresholds, forward = _sweep_counts(scores, LabelSeries(labels))
        reversed_thresholds, backward = _sweep_counts(
            scores[::-1], LabelSeries(labels[::-1])
        )
        assert thresholds.size == n + 1
        assert np.array_equal(reversed_thresholds, thresholds)
        assert_counts_equal(backward, forward)

    def test_evaluate_writes_the_same_report(self, tmp_path, monkeypatch):
        # --predictions and --scores, each on files written forward and
        # reversed in time
        monkeypatch.chdir(tmp_path)
        columns = {
            "labels": ("label", LABELS),
            "predictions": ("prediction", PREDICTIONS),
            "scores": ("score", SCORES),
        }
        for direction, step in (("forward", 1), ("backward", -1)):
            (tmp_path / direction).mkdir()
            for name, (header, values) in columns.items():
                cells = "".join(f"{v!r}\n" for v in values[::step])
                (tmp_path / direction / f"{name}.csv").write_text(
                    f"{header}\n{cells}"
                )
            for output in ("predictions", "scores"):
                assert main([
                    "evaluate", "--labels", f"{direction}/labels.csv",
                    f"--{output}", f"{direction}/{output}.csv",
                    "--out", f"{direction}/{output}",
                ]) == 0
        for output in ("predictions", "scores"):
            report = f"{output}/report.csv"
            assert (tmp_path / "backward" / report).read_bytes() == (
                tmp_path / "forward" / report
            ).read_bytes()


class TestJoin:
    @settings(max_examples=300, deadline=None)
    @given(flag_pairs(), flag_pairs())
    def test_prediction_counts(self, first, second):
        (labels1, preds1), (labels2, preds2) = first, second
        both = _prediction_counts(
            LabelSeries(labels1 + [0] + labels2),
            PredictionSeries(preds1 + [0] + preds2),
        )
        assert both == joined(
            _prediction_counts(LabelSeries(labels1), PredictionSeries(preds1)),
            _prediction_counts(LabelSeries(labels2), PredictionSeries(preds2)),
        )

    @settings(max_examples=300, deadline=None)
    @given(scored_layouts(), scored_layouts())
    def test_sweep_counts(self, first, second):
        (scores1, labels1), (scores2, labels2) = (
            [np.array(v) for v in layout] for layout in (first, second)
        )
        # the joining point's score lies below every other, so it is off
        # at every threshold but the last
        below = min(scores1.min(), scores2.min()) - 1.0
        thresholds, both = _sweep_counts(
            np.concatenate((scores1, [below], scores2)),
            LabelSeries(np.concatenate((labels1, [0], labels2))),
        )
        expected = np.union1d(scores1, scores2)[::-1]
        assert np.array_equal(
            thresholds, np.concatenate(([np.inf], expected, [below]))
        )

        def at(scores, labels):
            # the counts at the smallest own threshold at or above each t
            own, counts = _sweep_counts(scores, LabelSeries(labels))
            index = np.count_nonzero(own >= thresholds[:-1, None], axis=1) - 1
            return {name: value[index] for name, value in counts.items()}

        all_but_last = {name: value[:-1] for name, value in both.items()}
        assert_counts_equal(
            all_but_last, joined(at(scores1, labels1), at(scores2, labels2))
        )

    @settings(max_examples=300, deadline=None)
    @given(alarm_blocks(), alarm_blocks())
    def test_block_counts(self, first, second):
        rows = min(len(first[1]), len(second[1]))
        labels1, alarms1 = block(first[0], first[1][:rows])
        labels2, alarms2 = block(second[0], second[1][:rows])
        # the second block's alarms move past the first series and the
        # joining point; each row keeps its alarms in ascending order
        alarms = np.hstack((alarms1, alarms2 + len(labels1) + 1))
        labels = LabelSeries(
            np.concatenate((labels1.values, [0], labels2.values))
        )
        assert_counts_equal(
            _block_counts(labels, alarms),
            joined(
                _block_counts(labels1, alarms1),
                _block_counts(labels2, alarms2),
            ),
        )
