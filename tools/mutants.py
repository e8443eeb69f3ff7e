"""Run the committed mutants of the counting, loading, fitting and
warning code against the tests.

Each mutant is one textual edit of one file under src/, plus the tests
that must catch it. The script copies src/ to a temporary directory,
applies one mutant at a time to the copy, and runs the named tests with
the copy first on PYTHONPATH. A mutant is KILLED when its tests fail and
SURVIVED when they pass; a survivor means a test is missing, not that the
mutant should go. The unmutated copy must pass every named test first.

Usage, from anywhere (standard library only, plus what the tests need):

    python tools/mutants.py            # every mutant
    python tools/mutants.py 3 7        # mutants 3 and 7 only

Exit status: 0 when every mutant run is killed, 1 when one survives or
a mutant no longer applies, 2 when the unmutated copy fails its tests.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCK_TESTS = (
    "tests/test_protocols.py",
    "tests/test_adversary.py",
    "tests/test_acceptance.py",
)

# (file under src/tsadeval, old text, new text, test ids)
MUTANTS = [
    # _block_counts: a row's first hit opens no new event when the last
    # hit of the previous row fell on the same event
    (
        "protocols.py",
        "first_hit[1:] = new_row | (event[1:] != event[:-1])",
        "first_hit[1:] = event[1:] != event[:-1]",
        BLOCK_TESTS,
    ),
    # _block_counts: a row's first hit opens no true segment when its lag
    # equals the previous row's last lag
    (
        "protocols.py",
        "opens[1:] = new_row | (lag[1:] != lag[:-1])",
        "opens[1:] = lag[1:] != lag[:-1]",
        BLOCK_TESTS,
    ),
    # _block_counts: the block's first hit detects nothing
    (
        "protocols.py",
        "first_hit = np.ones(hit.size, dtype=bool)",
        "first_hit = np.zeros(hit.size, dtype=bool)",
        BLOCK_TESTS,
    ),
    # _block_counts: a hit on an event's first point counts toward the
    # event before; the comb rows put a hit on every event's first point
    (
        "protocols.py",
        'event = np.searchsorted(starts, hit, side="right") - 1',
        'event = np.searchsorted(starts, hit, side="left") - 1',
        (
            "tests/test_protocols.py::TestBlockCountsAgainstCombArithmetic",
        ),
    ),
    # _block_counts: a row of no alarms counts one predicted segment
    (
        "protocols.py",
        "segments = (alpha > 0) + np.count_nonzero(",
        "segments = 1 + np.count_nonzero(",
        ("tests/test_protocols.py::TestBlockCountsAgainstScore",),
    ),
    # _block_counts: a detected event adds one point less than its length
    # to adjusted_tp
    (
        "protocols.py",
        "np.add.at(adjusted_tp, first, lengths)",
        "np.add.at(adjusted_tp, first, lengths - 1)",
        ("tests/test_protocols.py::TestBlockCountsAgainstScore",),
    ),
    # every event ends one point late
    (
        "metrics.py",
        "return changes[::2], changes[1::2] - 1",
        "return changes[::2], changes[1::2]",
        ("tests/test_metrics.py", "tests/test_protocols.py"),
    ),
    # the sweep breaks ties in F1 toward the smaller threshold
    (
        "protocols.py",
        "best = int(np.argmax(f1))",
        "best = f1.size - 1 - int(np.argmax(f1[::-1]))",
        ("tests/test_pca_baseline.py",),
    ),
    # event-wise's false-alarm rate divides by all points, not the normal
    (
        "protocols.py",
        "precision = base * (1.0 - _ratio(fp, labels.n_normal))",
        "precision = base * (1.0 - _ratio(fp, len(labels)))",
        ("tests/test_protocols.py",),
    ),
    # point-adjust's missed points are the anomalous points less the raw
    # hits, not less the adjusted ones
    (
        "protocols.py",
        "adjusted_tp, fp, labels.n_anomalous - adjusted_tp",
        "adjusted_tp, fp, labels.n_anomalous - tp",
        ("tests/test_protocols.py",),
    ),
    # the dense sampler leaves each row in argpartition order
    (
        "adversary.py",
        "    alarms.sort(axis=1)\n    return alarms",
        "    return alarms",
        ("tests/test_adversary.py",),
    ),
    # _sweep_counts: a normal gap on from one event to the next is joined
    # to both, and the bridge term adds it back once
    (
        "protocols.py",
        "fp_e = fp - at_or_above(pairs_with_normal) + at_or_above(bridge)",
        "fp_e = fp - at_or_above(pairs_with_normal)",
        ("tests/test_pca_baseline.py",),
    ),
    # _sweep_counts: adjusted_tp sums the event lengths in ascending-peak
    # order, so it credits the events detected last, not first
    (
        "protocols.py",
        "lengths = (ends - starts + 1)[np.argsort(peak)[::-1]]",
        "lengths = (ends - starts + 1)[np.argsort(peak)]",
        ("tests/test_pca_baseline.py::TestSweepAgainstBruteForce",),
    ),
    # hit_probabilities: the binomial ratio on an all-anomalous series,
    # where s is empty and the contamination rate is 1
    (
        "adversary.py",
        "    elif s.size:\n",
        "    else:\n",
        ("tests/test_adversary.py::TestHitDistributions",),
    ),
    # event-wise precision divides by the events, not the detected events
    # and the false segments
    (
        "protocols.py",
        "base = _ratio(tp_e, tp_e + fp_e)",
        "base = _ratio(tp_e, labels.n_events)",
        ("tests/test_protocols.py", "tests/test_pca_baseline.py"),
    ),
    # a series' count of 1s skips its first point
    (
        "metrics.py",
        "n_positive = int(np.count_nonzero(arr))",
        "n_positive = int(np.count_nonzero(arr[1:]))",
        ("tests/test_metrics.py",),
    ),
    # the plain reader takes a block once any line has the right field
    # count, so lines with too few or too many fields shift the cells
    (
        "data_io.py",
        "if commas != {len(kinds) - 1}:",
        "if len(kinds) - 1 not in commas:",
        ("tests/test_data_io.py",),
    ),
    # the plain reader reads a lone CR, which ends a csv record, as part
    # of a cell
    (
        "data_io.py",
        'text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        'text = text.replace("\\r\\n", "\\n")',
        ("tests/test_data_io.py",),
    ),
    # the plain reader folds a lone CR before CRLF, so each CRLF becomes a
    # blank line and every CRLF file goes to csv.reader
    (
        "data_io.py",
        'text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        'text = text.replace("\\r", "\\n").replace("\\r\\n", "\\n")',
        ("tests/test_data_io.py::TestLineEnds",),
    ),
    # csv.reader's records are numbered one line late
    (
        "data_io.py",
        "yield line, record",
        "yield line + 1, record",
        (
            "tests/test_data_io.py::TestFrameRoundTrip::"
            "test_malformed_inputs_of_every_loader",
        ),
    ),
    # the block the plain reader refuses never reaches csv.reader, so its
    # lines are lost
    (
        "data_io.py",
        "rest = itertools.chain(lines, fh)",
        "rest = fh",
        ("tests/test_data_io.py::test_loaders_match_per_row_reference",),
    ),
    # the reader skips the loader's check, so an event that ends before it
    # starts is taken
    (
        "data_io.py",
        "                if check is not None:\n"
        "                    check(values)\n",
        "",
        (
            "tests/test_data_io.py::TestFrameRoundTrip::"
            "test_malformed_inputs_of_every_loader",
        ),
    ),
    # the loader's check runs only when the read ends without an error, so
    # a bad cell after a bad event is reported instead of the event
    (
        "data_io.py",
        "            finally:\n                # all rows read",
        "            except BaseException:\n"
        "                raise\n"
        "            else:\n"
        "                # all rows read",
        (
            "tests/test_data_io.py::TestFrameRoundTrip::"
            "test_malformed_inputs_of_every_loader",
            "tests/test_data_io.py::test_loaders_match_per_row_reference",
        ),
    ),
    # a bad event's error is shown as raised while handling the later error
    # still pending in the reader
    (
        "data_io.py",
        '{message}") from None',
        '{message}")',
        (
            "tests/test_data_io.py::TestEvents::"
            "test_bad_event_hides_the_bad_cell_after_it",
        ),
    ),
    # the exact path's row list is never emptied once a block is made of
    # it, so its rows are read twice
    (
        "data_io.py",
        "                        rows = []\n",
        "",
        (
            "tests/test_data_io.py::TestSingleColumnLoaders::"
            "test_quoted_cell_after_a_plain_block",
            "tests/test_data_io.py::test_loaders_match_per_row_reference",
        ),
    ),
    # the reader hands an empty file's missing header to the loader's
    # header check instead of refusing the file itself
    (
        "data_io.py",
        "            if header is None:\n"
        '                raise ValueError(f"{path}: empty file")\n',
        "",
        ("tests/test_data_io.py",),
    ),
    # fit centres each channel on its mean, not its median
    (
        "pca_baseline.py",
        "center = np.median(x, axis=0)",
        "center = np.mean(x, axis=0)",
        ("tests/test_golden.py", "tests/test_acceptance.py"),
    ),
    # a zero denominator is divided by, not turned into 0.0
    (
        "metrics.py",
        "where=den > 0,",
        "where=den >= 0,",
        ("tests/test_metrics.py",),
    ),
    # a value keeps the caller's own array, and marks it read-only
    (
        "metrics.py",
        "arr = np.array(values, dtype=dtype, order=order)",
        "arr = np.asarray(values, dtype=dtype, order=order)",
        (
            "tests/test_data_io.py::TestFrameRoundTrip::"
            "test_keeps_a_read_only_copy_of_the_callers_array",
            "tests/test_pca_baseline.py::TestScore::"
            "test_score_series_keeps_a_read_only_copy",
            "tests/test_pca_baseline.py::TestPersistence::"
            "test_model_keeps_read_only_copies",
            "tests/test_adversary.py::TestReadOnlyOutcomes::"
            "test_distribution_keeps_read_only_copies",
            "tests/test_adversary.py::TestReadOnlyOutcomes::"
            "test_trials_keep_read_only_copies",
            "tests/test_metrics.py::TestAsBinaryArray::"
            "test_returns_a_read_only_int8_copy",
        ),
    ),
    # a value's arrays stay writable
    (
        "metrics.py",
        "    arr.setflags(write=False)\n    return arr",
        "    return arr",
        (
            "tests/test_adversary.py::TestReadOnlyOutcomes::"
            "test_trials_refuse_writes",
            "tests/test_metrics.py::TestSeries::test_values_are_immutable",
        ),
    ),
    # a label series takes new attributes, as its class is no frozen
    # dataclass of its own
    (
        "metrics.py",
        "@dataclass(frozen=True, eq=False)\nclass LabelSeries(_BinarySeries):",
        "class LabelSeries(_BinarySeries):",
        (
            "tests/test_metrics.py::TestSeries::"
            "test_attributes_cannot_be_rebound[extra-LabelSeries]",
        ),
    ),
    # values pickle and copy their attributes, not through the constructor
    (
        "metrics.py",
        "    def __reduce__(self):\n        return type(self), self._args()",
        "    def _reduce(self):\n        return type(self), self._args()",
        (
            "tests/test_metrics.py::TestValues::"
            "test_pickle_and_deepcopy_rebuild_an_equal_read_only_value",
        ),
    ),
    # arrays compare equal whatever they hold
    (
        "metrics.py",
        "return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b",
        "return True if isinstance(a, np.ndarray) else a == b",
        (
            "tests/test_metrics.py::TestValues::"
            "test_one_changed_element_makes_values_unequal",
        ),
    ),
    # two mappings with the same keys compare equal whatever they hold
    (
        "metrics.py",
        "return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)",
        "return a.keys() == b.keys()",
        (
            "tests/test_metrics.py::TestValues::"
            "test_one_changed_element_makes_values_unequal[RandomFlagTrials]",
        ),
    ),
    # a score equal to the threshold is not flagged, so the prediction at
    # the sweep's threshold misses the points that score exactly that
    (
        "protocols.py",
        "return PredictionSeries(scores.scores >= threshold)",
        "return PredictionSeries(scores.scores > threshold)",
        (
            "tests/test_pca_baseline.py::TestSweep::"
            "test_brute_force_agreement",
            "tests/test_pca_baseline.py::TestSweepReport",
        ),
    ),
    # the sweep scores the prediction at its winner again instead of
    # reporting from its own counts
    (
        "protocols.py",
        "return threshold, _reports(labels, winner, (protocol,))[0]",
        "return threshold, score(\n"
        "        labels, predictions_at_threshold(scores, threshold), protocol\n"
        "    )",
        (
            "tests/test_pca_baseline.py::TestSweepCost::"
            "test_one_score_call_per_sweep",
        ),
    ),
    # evaluate binarizes the sweep's winner and counts that prediction
    # again instead of reporting from the sweep's counts
    (
        "protocols.py",
        "threshold, counts = _sweep_winner(output, labels, Protocol.POINT_WISE)",
        "threshold, _ = _sweep_winner(output, labels, Protocol.POINT_WISE)\n"
        "        counts = _prediction_counts(\n"
        "            labels, predictions_at_threshold(output, threshold)\n"
        "        )",
        (
            "tests/test_pca_baseline.py::TestSweepCost::"
            "test_one_score_call_per_sweep",
        ),
    ),
    # evaluate picks the threshold that is best under the first protocol
    # asked for, not under point-wise
    (
        "protocols.py",
        "threshold, counts = _sweep_winner(output, labels, Protocol.POINT_WISE)",
        "threshold, counts = _sweep_winner(\n"
        "            output, labels,\n"
        "            Protocol(protocols[0]) if protocols else Protocol.POINT_WISE,\n"
        "        )",
        ("tests/test_protocols.py::TestEvaluateAgainstComposition",),
    ),
    # the no-normal-points warning points at the line inside the library
    # that scored, not at the first line outside it
    (
        "metrics.py",
        "level += 1",
        "break",
        ("tests/test_protocols.py::TestNoNormalPointsWarnOncePerCall",),
    ),
    # the warning points one frame past the first line outside the library
    (
        "metrics.py",
        "stacklevel=level)",
        "stacklevel=level + 1)",
        ("tests/test_protocols.py::TestNoNormalPointsWarnOncePerCall",),
    ),
    # a model takes a NaN or an infinity unless every value is one
    (
        "pca_baseline.py",
        'if not np.isfinite(arr).all():\n'
        '                raise ValueError(f"{f.name} must be finite")',
        'if not np.isfinite(arr).any():\n'
        '                raise ValueError(f"{f.name} must be finite")',
        ("tests/test_pca_baseline.py::TestPersistence",),
    ),
    # a model takes a zero spread, which divides its channel by 0
    (
        "pca_baseline.py",
        '_check_range("smallest spread", self.spread.min(), 0, ends="(]")',
        '_check_range("smallest spread", self.spread.min(), 0)',
        ("tests/test_pca_baseline.py::TestPersistence",),
    ),
    # a model takes clip bounds that cross in one channel but not all
    (
        "pca_baseline.py",
        '_check_range("smallest clip_high - clip_low", gap.min(), 0)',
        '_check_range("smallest clip_high - clip_low", gap.max(), 0)',
        ("tests/test_pca_baseline.py::TestPersistence",),
    ),
    # _bounds checks the event rule only against a series length, so the
    # writer writes a negative start or an end before its start
    (
        "data_io.py",
        "    found = _event_error(bounds, total_points=total_points)\n"
        "    if found is not None:",
        "    found = _event_error(bounds, total_points=total_points)\n"
        "    if found is not None and total_points is not None:",
        (
            "tests/test_data_io.py::TestEvents::"
            "test_bad_bounds_are_not_written",
            "tests/test_data_io.py::TestEvents::"
            "test_written_events_read_back_equal",
        ),
    ),
    # _sweep_counts: the bridge minima are taken over the events, not over
    # the normal gaps between them
    (
        "protocols.py",
        "gap = bounds[1:-1]",
        "gap = bounds[:-2]",
        (
            "tests/test_pca_baseline.py::TestSweepAgainstBruteForce",
            "tests/test_protocols.py::TestSweepOnSignedScores",
        ),
    ),
    # _cell spells a numpy float as its repr, np.float64(...), where a
    # Python float's repr is wanted; far-study's table holds numpy floats
    (
        "data_io.py",
        "return repr(float(value))",
        "return repr(value)",
        (
            "tests/test_golden.py::"
            "test_outputs_match_pinned_hashes[far-study]",
        ),
    ),
    # _cell spells a bool as True/False, not true/false, as in the
    # deprecated_protocol column of report.csv
    (
        "data_io.py",
        'return "true" if value else "false"',
        "return str(value)",
        (
            "tests/test_golden.py::"
            "test_outputs_match_pinned_hashes[evaluate-predictions]",
        ),
    ),
]


def run_tests(src: Path, tests, scratch: Path) -> int:
    """Exit status of pytest on the given tests with `src` importable first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # no cached bytecode: a mutant and the original can share size and mtime
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # failing examples of a mutant stay out of the project's database
    env["HYPOTHESIS_STORAGE_DIRECTORY"] = str(scratch / "hypothesis")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        # the ini file puts the project's own src/ first; the copy goes first
        "-o", "pythonpath=",
        *(str(ROOT / test) for test in tests),
    ]
    done = subprocess.run(
        command, cwd=scratch, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode


def _stop(signum, frame):
    """SIGTERM as SystemExit: subprocess.run kills the running pytest on
    the way out, and the temporary directory is removed."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    signal.signal(signal.SIGTERM, _stop)
    with tempfile.TemporaryDirectory(prefix="tsadeval-mutants-") as tmp:
        scratch = Path(tmp)
        src = scratch / "src"
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
        )
        every_test = sorted({t for i in chosen for t in MUTANTS[i - 1][3]})
        if run_tests(src, every_test, scratch) != 0:
            print("the unmutated source fails its tests; nothing to measure")
            return 2
        failed = 0
        for i in chosen:
            name, old, new, tests = MUTANTS[i - 1]
            path = src / "tsadeval" / name
            original = path.read_text()
            if original.count(old) != 1:
                print(f"{i:2d} {name}: MISSING, the old text is not there")
                failed += 1
                continue
            path.write_text(original.replace(old, new))
            try:
                status = run_tests(src, tests, scratch)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "KILLED"}.get(status, "ERROR")
            failed += verdict != "KILLED"
            print(f"{i:2d} {name}: {verdict}: {new.strip()!r}", flush=True)
        print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
