"""File formats, synthetic generation and the consistency checker."""

import copy
import csv
import json
import math
import os
import pickle
import re
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadeval import data_io
from tsadeval.data_io import (
    _BLOCK_CHARS,
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


def frame_contents(path):
    frame = load_frame(path)
    labels = frame.labels.values.tolist()
    return frame.channel_names, frame.values.tolist(), labels


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

    def test_directory_in_the_way_names_the_path(self, tmp_path):
        target = tmp_path / "isdir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as caught:
            atomic_write_text(target, "text")
        assert str(target) in str(caught.value)
        assert ".tmp" not in str(caught.value)
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        # what a plain open() would give, not mkstemp's private 0o600
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "t.txt", "text")
            with atomic_open(tmp_path / "b.bin", "wb") as fh:
                fh.write(b"bytes")
        finally:
            os.umask(previous)
        for name in ("t.txt", "b.bin"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

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


# rows of "0.25\n" whose characters are one short of a block's read
FILLING_ROWS = (_BLOCK_CHARS - 1) // len("0.25\n")

# (loader, file text, expected message) for the loaders that
# test_malformed_inputs (frames only) does not cover, plus errors a block
# of _BLOCK_CHARS characters or more past the header. A block is the read
# of _BLOCK_CHARS characters plus the rest of the line it cuts, or the
# whole next line if it cuts none; test_block_placement shows where each
# "-block" case's bad row falls. A bytes body is written as it is
LOADER_ERRORS = [
    pytest.param(load_label_series, "", "empty file", id="labels-empty"),
    pytest.param(load_label_series, "label\n", "no data rows", id="labels-no-rows"),
    pytest.param(
        load_label_series,
        "label\n1\n2\n",
        "line 3: column 'label': expected 0 or 1, got '2'",
        id="labels-bad-flag",
    ),
    pytest.param(
        load_label_series,
        "c0,label\n0.5,1\n0.5,x\n",
        "line 3: column 'label': not a number: 'x'",
        id="labels-frame-bad-flag",
    ),
    pytest.param(
        load_prediction_series,
        "prediction\n1\n\n0\n",
        "line 3: expected 1 field, got 0",
        id="predictions-blank-line",
    ),
    pytest.param(
        load_prediction_series,
        "prediction\n1,0\n",
        "line 2: expected 1 field, got 2",
        id="predictions-two-fields",
    ),
    pytest.param(
        load_prediction_series,
        "pred\n1\n",
        "expected header ['prediction'], got ['pred']",
        id="predictions-header",
    ),
    pytest.param(
        load_score_series,
        "score\n0.5\ninf\n",
        "line 3: column 'score': non-finite value 'inf'",
        id="scores-inf",
    ),
    pytest.param(
        load_score_series,
        "score\n1e400\n",
        "line 2: column 'score': non-finite value '1e400'",
        id="scores-overflow",
    ),
    pytest.param(load_score_series, "", "empty file", id="scores-empty"),
    pytest.param(load_events, "", "empty file", id="events-empty"),
    pytest.param(
        load_events,
        "start,end\n1,2\n\n",
        "line 3: expected 2 fields, got 0",
        id="events-blank-line",
    ),
    pytest.param(
        load_events,
        "start,end\n1,x\n",
        "line 2: non-integer bounds ['1', 'x']",
        id="events-non-integer",
    ),
    pytest.param(
        load_events,
        "start,end\n-1,2\n",
        "line 2: segment start must be >= 0, got -1",
        id="events-negative",
    ),
    # int() reads 20 digits, int64 cannot hold them
    pytest.param(
        load_events,
        "start,end\n1,99999999999999999999\n",
        "line 2: bounds beyond 64-bit integers",
        id="events-overflow",
    ),
    # a bad segment is reported before a bad cell later in its block
    pytest.param(
        load_events,
        "start,end\n5,4\n1,2\nx,3\n",
        "line 2: segment end 4 precedes start 5",
        id="events-segment-before-cell",
    ),
    # a quoted cell sends the rows to csv.reader; the bytes that are not
    # UTF-8 lie past what the first block's read decodes, and the bad
    # segment before them is reported
    pytest.param(
        load_events,
        b'start,end\n"5",4\n'
        + b"1,2\n" * (2 * _BLOCK_CHARS // len("1,2\n"))
        + b"\xff\n",
        "line 2: segment end 4 precedes start 5",
        id="events-segment-before-non-utf8",
    ),
    pytest.param(
        lambda path: load_events(path, end_exclusive=True),
        "start,end\n0,-9223372036854775808\n",
        "line 2: segment end -9223372036854775809 precedes start 0",
        id="events-exclusive-int64-min",
    ),
    # one field too many, then one too few: the right count of cells
    pytest.param(
        load_frame,
        "c0,c1\n1,2,3\n4\n",
        "line 2: expected 2 fields, got 3",
        id="frame-fields-shifted-between-lines",
    ),
    # each line is counted: a well-formed line beside them hides neither
    pytest.param(
        load_frame,
        "c0,c1\n1\n1,2\n1,2,3\n",
        "line 2: expected 2 fields, got 1",
        id="frame-fields-shifted-around-a-good-line",
    ),
    # a record ends at a lone CR, and at no other control character
    pytest.param(
        load_label_series,
        "label\n1\r\r\n0\n",
        "line 3: expected 1 field, got 0",
        id="labels-lone-cr-before-crlf",
    ),
    pytest.param(
        load_score_series,
        "score\n1\x0c2\n",
        "line 2: column 'score': not a number: '1\\x0c2'",
        id="scores-form-feed",
    ),
    # the bad cell x sits in a later block than the first bad cell, 7
    pytest.param(
        load_frame,
        "c0,label\n0.5,0\n0.5,7\n"
        + "0.5,0\n" * (_BLOCK_CHARS // len("0.5,0\n"))
        + "x,0\n",
        "line 3: column 'label': expected 0 or 1, got '7'",
        id="frame-first-bad-cell-wins",
    ),
    # the rows fill all of a block's read but its last character, x
    pytest.param(
        load_score_series,
        "score\n" + "0.25\n" * FILLING_ROWS + "x\n0.25\n",
        f"line {FILLING_ROWS + 2}: column 'score': not a number: 'x'",
        id="scores-last-row-of-block",
    ),
    # the read ends at a line's end, so the block takes one more line
    pytest.param(
        load_prediction_series,
        "prediction\n" + "1\n" * (_BLOCK_CHARS // 2 + 1) + "2\n",
        f"line {_BLOCK_CHARS // 2 + 3}: column 'prediction': "
        "expected 0 or 1",
        id="predictions-first-row-of-block",
    ),
]


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

    def test_keeps_a_read_only_copy_of_the_callers_array(self):
        values = np.arange(6.0).reshape(3, 2)
        frame = MvtsFrame(values=values)
        assert values.flags.writeable
        assert not frame.values.flags.writeable
        values[0, 0] = 99.0
        assert frame.values[0, 0] == 0.0

    def test_pickle_and_deepcopy_round_trip(self):
        frame = MvtsFrame(
            values=np.arange(6.0).reshape(3, 2),
            channel_names=("a", "b"),
            labels=LabelSeries([0, 1, 1]),
        )
        for back in (pickle.loads(pickle.dumps(frame)), copy.deepcopy(frame)):
            assert np.array_equal(back.values, frame.values)
            assert back.channel_names == ("a", "b")
            assert back.labels == frame.labels
            assert back.labels.starts.tolist() == [1]
            assert back.labels.ends.tolist() == [2]

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
            ("c0\n1.0\n\n2.0\n", "line 3: expected 1 field, got 0"),
        ],
    )
    def test_malformed_inputs(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            load_frame(path)

    @pytest.mark.parametrize("loader,body,message", LOADER_ERRORS)
    def test_malformed_inputs_of_every_loader(
        self, tmp_path, loader, body, message
    ):
        path = tmp_path / "bad.csv"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(ValueError, match=re.escape(message)):
            loader(path)

    def test_block_placement(self, tmp_path):
        # the lines of each block _plain_block is handed, in file order
        cases = {case.id: case.values[:2] for case in LOADER_ERRORS}

        def blocks(case):
            loader, body = cases[case]
            path = tmp_path / "bad.csv"
            path.write_text(body)
            spy = mock.patch.object(
                data_io, "_plain_block", wraps=data_io._plain_block
            )
            with spy as plain, pytest.raises(ValueError):
                loader(path)
            return [c.args[0].splitlines() for c in plain.call_args_list]

        (first,) = blocks("frame-first-bad-cell-wins")
        assert first[1] == "0.5,7" and "x,0" not in first
        (first,) = blocks("scores-last-row-of-block")
        assert first[-2:] == ["0.25", "x"]
        first, second = blocks("predictions-first-row-of-block")
        assert set(first) == {"1"} and second == ["2"]

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

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0, 0)])
    def test_empty_frame_is_refused(self, shape):
        message = "^frame needs at least one row and one channel$"
        with pytest.raises(ValueError, match=message):
            MvtsFrame(values=np.zeros(shape))


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

    def test_frame_without_labels_rejected_before_its_rows(self, tmp_path):
        # the header alone decides; the bad cell on line 3 is never read
        path = tmp_path / "f.csv"
        path.write_text("c0,c1\n1.0,2.0\nx,1\n")
        with pytest.raises(ValueError) as caught:
            load_label_series(path)
        assert str(caught.value) == f"{path}: frame has no label column"

    def test_predictions(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("prediction\n1\n0\n")
        assert load_prediction_series(path).values.tolist() == [1, 0]

    def test_scores(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("score\n0.25\n1.5\n")
        assert load_score_series(path).tolist() == [0.25, 1.5]

    @pytest.mark.parametrize(
        "text, read",
        [
            ("label\n0\n1\n", lambda p: load_label_series(p).values.tolist()),
            ("score\n0.25\n1.5\n", lambda p: load_score_series(p).tolist()),
            ("c0,c1,label\n0.5,1,0\n0.7,2,1\n", frame_contents),
            ("start,end\n3,7\n", lambda p: load_events(p).tolist()),
        ],
        ids=["labels", "scores", "frame", "events"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, read):
        # Excel's "CSV UTF-8" export starts the file with a BOM
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert read(marked) == read(plain)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n0.25\n")
        with pytest.raises(ValueError, match="header"):
            load_score_series(path)

    def test_quoted_cell_after_a_plain_block(self, tmp_path):
        # the first block of lines is read without csv.reader, the quote
        # hands its block and the rest of the file to csv.reader, whose
        # records are converted _BLOCK_ROWS at a time
        plain = data_io._BLOCK_CHARS // len("0.5\n") + 1
        exact = data_io._BLOCK_ROWS
        body = "score\n" + "0.5\n" * plain + '"0.25"\n' + "0.75\n" * exact
        path = tmp_path / "s.csv"
        path.write_text(body)
        parse = mock.patch.object(
            data_io, "_parse_row", wraps=data_io._parse_row
        )
        with parse as parsed:
            values = load_score_series(path)
        assert values.tolist() == [0.5] * plain + [0.25] + [0.75] * exact
        records = [(c.args[0], c.args[4]) for c in parsed.call_args_list]
        assert records[:2] == [(["0.25"], plain + 2), (["0.75"], plain + 3)]
        assert len(records) == exact + 1
        path.write_text(body + "x\n")
        with pytest.raises(
            ValueError,
            match=(
                f"line {plain + exact + 3}: column 'score': not a number: 'x'"
            ),
        ):
            load_score_series(path)

    @pytest.mark.parametrize(
        "lines", [1, data_io._BLOCK_CHARS], ids=["first-block", "later-block"]
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, lines):
        # the byte stops the read wherever it falls, in the first block of
        # lines or past it
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label\n" + b"0\n" * lines + b"\xff\n1\n")
        message = "bad.csv: not UTF-8 text (invalid start byte)"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_label_series(path)

    def test_field_over_the_csv_limit(self, tmp_path):
        # float() would read the padded cell, csv.reader refuses it; its
        # error names the record's line like every other input error, here
        # after a plain block and several blocks of csv.reader records
        limit = csv.field_size_limit()
        path = tmp_path / "s.csv"
        path.write_text("score\n" + "0.5\n" * 20000 + " " * limit + "1\n0\n")
        message = (
            f"s.csv: line 20002: field larger than field limit \\({limit}\\)"
        )
        with pytest.raises(ValueError, match=message):
            load_score_series(path)
        path.write_text("s" * (limit + 1) + "\n0.5\n")
        with pytest.raises(ValueError, match="s.csv: line 1: field larger"):
            load_score_series(path)


class TestFlagBytes:
    """A lone flag column of plain 0/1 lines is converted from its bytes."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize(
        "header, load",
        [("label", load_label_series), ("prediction", load_prediction_series)],
    )
    def test_plain_flags_equal_the_numpy_conversion(
        self, tmp_path, newline, header, load
    ):
        # several blocks of lines, with no newline after the last one
        rows = 2 * data_io._BLOCK_CHARS + 5
        flags = np.random.default_rng(rows).integers(0, 2, rows).astype(str)
        path = tmp_path / "flags.csv"
        path.write_text(newline.join([header, *flags]), newline="")
        converted = mock.patch.object(
            data_io, "_converted", wraps=data_io._converted
        )
        with converted as numpy_conversion:
            values = load(path).values
        numpy_conversion.assert_not_called()
        expected = data_io._converted(flags.tolist(), ["flag"])
        assert values.tolist() == expected[:, 0].tolist()
        block = data_io._plain_block(newline.join(flags[:100]), ["flag"])
        assert block.dtype == expected.dtype
        assert np.array_equal(block, expected[:100])

    def test_other_spellings_take_the_numpy_conversion(self, tmp_path):
        # one plain block, then a block of spellings only float() reads
        plain = data_io._BLOCK_CHARS // len("1\n") + 1
        spelled = ["1.0", " 1", "-0", "\u0661", "0"]
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "1\n" * plain + "\n".join(spelled) + "\n")
        values = load_label_series(path).values.tolist()
        assert values == [1] * plain + [1, 1, 0, 1, 0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_flag_after_the_first_block_names_its_line(
        self, tmp_path, newline
    ):
        plain = 2 * data_io._BLOCK_CHARS // len("0" + newline) + 3
        path = tmp_path / "labels.csv"
        lines = ["label", *["0"] * plain, "2", "1"]
        path.write_text(newline.join(lines) + newline, newline="")
        message = f"{path}: line {plain + 2}: column 'label': expected 0 or 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, got '2'$"):
            load_label_series(path)

    @pytest.mark.parametrize("body", ["0\n\n11\n", "\n01\n", "1\n0\n\n"])
    def test_blank_lines_are_refused(self, tmp_path, body):
        # no more 0s and 1s than lines, yet one line is blank
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + body)
        with pytest.raises(ValueError, match="expected 1 field, got 0"):
            load_label_series(path)


class TestLineEnds:
    """Plain blocks end their lines where csv.reader ends records."""

    @pytest.mark.parametrize(
        "header, row, load",
        [
            ("score", "{a!r}", lambda p: load_score_series(p).tolist()),
            ("c0,c1,label", "{a!r},{b!r},{flag}", frame_contents),
        ],
        ids=["scores", "frame"],
    )
    def test_lone_cr_file_reads_like_its_lf_twin_without_csv_reader(
        self, tmp_path, header, row, load
    ):
        rng = np.random.default_rng(40)
        values = rng.normal(size=(_BLOCK_CHARS // 8, 2)).tolist()
        flags = rng.integers(0, 2, len(values)).tolist()
        lines = [header] + [
            row.format(a=a, b=b, flag=flag)
            for (a, b), flag in zip(values, flags)
        ]
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_text("\n".join(lines) + "\n", newline="")
        cr.write_text("\r".join(lines) + "\r", newline="")
        assert cr.stat().st_size > 2 * _BLOCK_CHARS
        exact = mock.patch.object(
            data_io, "_parse_row", side_effect=AssertionError("csv.reader")
        )
        with exact:
            assert load(cr) == load(lf)

    def test_crlf_cut_by_a_read_ends_one_line(self, tmp_path):
        # the first read stops between a CR and its LF; reading on to the
        # line's end brings the LF into the block, which makes no blank line
        first = "0.5" + "0" * ((_BLOCK_CHARS - 4) % 5)
        lines = [first] + ["0.5"] * (_BLOCK_CHARS // 5)
        body = "\r\n".join(lines) + "\r\n"
        assert body[_BLOCK_CHARS - 1 : _BLOCK_CHARS + 1] == "\r\n"
        path = tmp_path / "s.csv"
        path.write_text("score\r\n" + body, newline="")
        plain = mock.patch.object(
            data_io, "_plain_block", wraps=data_io._plain_block
        )
        exact = mock.patch.object(
            data_io, "_parse_row", side_effect=AssertionError("csv.reader")
        )
        with plain as blocks, exact:
            values = load_score_series(path)
        assert values.tolist() == [0.5] * len(lines)
        assert blocks.call_args_list[0].args[0] == body[: _BLOCK_CHARS + 1]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("x", "column 'score': not a number: 'x'"),
            (
                " " * csv.field_size_limit() + "1",
                f"field larger than field limit ({csv.field_size_limit()})",
            ),
        ],
        ids=["bad-cell", "field-over-the-csv-limit"],
    )
    def test_error_after_two_lone_cr_blocks_names_its_line(
        self, tmp_path, bad, message
    ):
        # LF and CRLF files are held to the same lines by LOADER_ERRORS,
        # TestFlagBytes and test_field_over_the_csv_limit
        plain = 2 * _BLOCK_CHARS // len("0.5\r") + 3
        path = tmp_path / "s.csv"
        lines = ["score", *["0.5"] * plain, bad, "0.5"]
        path.write_text("\r".join(lines) + "\r", newline="")
        spy = mock.patch.object(
            data_io, "_plain_block", wraps=data_io._plain_block
        )
        with spy as blocks, pytest.raises(ValueError) as caught:
            load_score_series(path)
        # two blocks read on the fast path, then the one it refuses
        assert blocks.call_count == 3
        assert str(caught.value) == f"{path}: line {plain + 2}: {message}"


# small bounds, so that rows collide and cross, and the int64 extremes
EVENT_BOUND = st.integers(-3, 40) | st.sampled_from(
    [int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)]
)


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = np.array([[3, 7], [20, 20]], dtype=np.int64)
        path = tmp_path / "e.csv"
        write_events(events, path)
        assert path.read_text().splitlines() == ["start,end", "3,7", "20,20"]
        loaded = load_events(path)
        assert loaded.dtype == np.int64
        assert loaded.tolist() == [[3, 7], [20, 20]]

    def test_end_exclusive_conversion(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n3,8\n")
        assert load_events(path, end_exclusive=True).tolist() == [[3, 7]]

    def test_bad_event_hides_the_bad_cell_after_it(self, tmp_path):
        # the reader checks the events on lines 2-3 while the error of line
        # 4 is pending; a traceback shows only the first error in the file
        path = tmp_path / "e.csv"
        path.write_text("start,end\n5,4\n1,2\nx,3\n")
        with pytest.raises(ValueError, match="line 2: segment") as caught:
            load_events(path)
        error = caught.value
        assert error.__context__ is None or error.__suppress_context__

    def test_header_only_file_has_no_events(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n")
        events = load_events(path)
        assert events.shape == (0, 2)
        assert events.dtype == np.int64

    def test_event_past_series_end_names_its_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n0,1\n3,9\n")
        assert load_events(path).tolist() == [[0, 1], [3, 9]]
        message = f"{path}: line 3: event (3, 9) exceeds series of length 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_events(path, total_points=4)
        # the series' bound is checked on the inclusive end
        events = load_events(path, end_exclusive=True, total_points=9)
        assert events.tolist() == [[0, 0], [3, 8]]

    @pytest.mark.parametrize(
        "total_points, message",
        [
            (8000.5, "total_points must be an integer, got 8000.5"),
            (-3, "total_points must be >= 1, got -3"),
        ],
    )
    def test_total_points_is_a_count(self, tmp_path, total_points, message):
        path = tmp_path / "e.csv"
        path.write_text("start,end\n3,7\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_events(path, total_points=total_points)

    @pytest.mark.parametrize(
        "events, message",
        [
            ([[1.5, 2.7]], "events must be integers, got dtype float64"),
            ([[1, 2, 3]], "events must have shape (n, 2), got (1, 3)"),
            # the words labels_from_events and load_events give
            ([[-2, 4]], "segment start must be >= 0, got -2"),
            ([[5, 3]], "segment end 3 precedes start 5"),
        ],
    )
    def test_bad_bounds_are_not_written(self, tmp_path, events, message):
        path = tmp_path / "e.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_events(events, path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(EVENT_BOUND, EVENT_BOUND), max_size=6))
    def test_written_events_read_back_equal(self, tmp_path_factory, pairs):
        # the writer refuses the first row that is no Segment, in Segment's
        # words; every array it writes, the loader reads back equal
        events = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        path = tmp_path_factory.mktemp("events") / "e.csv"
        try:
            for start, end in pairs:
                Segment(start, end)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                write_events(events, path)
            assert not path.exists()
            return
        write_events(events, path)
        loaded = load_events(path)
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, events)

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
        labels = labels_from_events([[0, 4], [3, 6]], 10)
        assert labels.values.tolist() == [1, 1, 1, 1, 1, 1, 1, 0, 0, 0]
        assert labels.n_events == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            labels_from_events([[8, 12]], 10)

    def test_empty_sequence_holds_no_events(self):
        assert labels_from_events([], 4) == LabelSeries([0, 0, 0, 0])

    @pytest.mark.parametrize(
        "events", [[[1.5, 2.7]], np.array([[1.0, 2.0]]), [[True, True]]]
    )
    def test_non_integer_bounds_rejected(self, events):
        dtype = np.asarray(events).dtype
        message = f"events must be integers, got dtype {dtype}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            labels_from_events(events, 10)

    @pytest.mark.parametrize(
        "events, shape",
        [([1, 2], (2,)), ([[1, 2, 3]], (1, 3)), (np.zeros((1, 2, 2)), (1, 2, 2))],
    )
    def test_bounds_of_another_shape_rejected(self, events, shape):
        message = f"events must have shape (n, 2), got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            labels_from_events(events, 10)

    def test_round_trip_with_segmentize(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            values = (rng.random(rng.integers(1, 80)) < 0.35).astype(np.int8)
            labels = LabelSeries(values)
            bounds = np.column_stack((labels.starts, labels.ends))
            rebuilt = labels_from_events(bounds, len(labels))
            assert rebuilt == labels

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=120))
    def test_round_trip_property(self, bits):
        labels = LabelSeries(np.array(bits, dtype=np.int8))
        bounds = np.column_stack((labels.starts, labels.ends))
        assert labels_from_events(bounds, len(labels)) == labels

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=45),
                st.integers(min_value=-3, max_value=45),
            ),
            max_size=8,
        ),
    )
    def test_paints_like_a_point_by_point_reference(self, n, pairs):
        bounds = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        # the first row that is no event names the error, checked in the
        # order start, then end before start, then series end
        for s, e in pairs:
            if s < 0:
                message = f"segment start must be >= 0, got {s}"
            elif e < s:
                message = f"segment end {e} precedes start {s}"
            elif e >= n:
                message = f"event ({s}, {e}) exceeds series of length {n}"
            else:
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                labels_from_events(bounds, n)
            return
        expected = [int(any(s <= i <= e for s, e in pairs)) for i in range(n)]
        assert labels_from_events(bounds, n).values.tolist() == expected


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
        labels = labels_from_events([[10, 19]], 40)
        shifted = labels_from_events([[11, 20]], 40)
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
            # values of the wrong JSON type, each named by its key
            dict(total_points="100"),
            dict(total_points=100.0),
            dict(n_channels=2.5),
            dict(seed="x"),
            dict(seed=-1),
            dict(gap_policy=True),
            dict(event_lengths=5),
            dict(event_lengths=[5.7]),
            dict(event_lengths=["5"]),
            dict(anomaly_signal="spike"),
            dict(signal_strength="3"),
            dict(signal_strength=float("nan")),
        ],
    )
    def test_validation(self, overrides):
        # the message names the key at fault
        with pytest.raises(ValueError, match="|".join(overrides)):
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

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"total_points": 500,\n}', "Expecting property name"),
            (
                '{"total_points": 500, "event_lengths": [20], "n_channels": 4,'
                ' "anomaly_signal": "mean-shift", "seed": "7"}',
                "seed must be an integer",
            ),
            ("\xff", "can't decode"),
            ('[{"total_points": 500}]', "expected a JSON object$"),
        ],
        ids=["malformed-json", "mistyped-value", "not-text", "not-an-object"],
    )
    def test_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_bytes(text.encode("latin-1"))
        where = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{where}: .*{message}"):
            load_synthetic_spec(path)


class TestPlacement:
    def test_lengths_and_gaps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            events = place_events(300, [10, 20, 5], 10, rng)
            starts, ends = events[:, 0], events[:, 1]
            assert (ends - starts + 1).tolist() == [10, 20, 5]
            for a_end, b_start in zip(ends, starts[1:]):
                assert b_start - a_end - 1 >= 10
            assert starts[0] >= 0
            assert ends[-1] < 300

    def test_tight_fit(self):
        rng = np.random.default_rng(1)
        events = place_events(25, [10, 10], 5, rng)
        assert events.tolist() == [[0, 9], [15, 24]]

    def test_infeasible(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            place_events(24, [10, 10], 5, rng)

    def test_no_events(self):
        rng = np.random.default_rng(3)
        events = place_events(100, [], 10, rng)
        assert events.shape == (0, 2)
        assert events.dtype == np.int64

    def test_placement_spreads_over_series(self):
        rng = np.random.default_rng(4)
        starts = [place_events(1000, [10], 0, rng)[0, 0] for _ in range(500)]
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


# ---------------------------------------------------------------------------
# The AR(1) scan behind the normal regime, against scipy's lfilter and the
# sequential recurrence. It sums in another order than both, so it matches
# them to a tolerance, not bit for bit.


def sequential_ar1(values, coef):
    out = np.empty_like(values)
    y = np.zeros(values.shape[1:])
    for t, v in enumerate(values):
        y = v + coef * y
        out[t] = y
    return out


class TestAr1:
    @pytest.mark.parametrize(
        "shape", [(1, 3), (2, 3), (5, 1), (1000, 1), (4097, 4), (20000, 8)]
    )
    def test_matches_lfilter(self, shape):
        from scipy import signal

        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        expected = signal.lfilter([1.0], [1.0, -0.9], values, axis=0)
        got = data_io._ar1(values.copy(), 0.9)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # the first row is the first innovation, untouched
        assert np.array_equal(got[0], values[0])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 4),
        coef=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_recurrence(self, n, d, coef, seed):
        values = np.random.default_rng(seed).standard_normal((n, d))
        got = data_io._ar1(values.copy(), coef)
        np.testing.assert_allclose(
            got, sequential_ar1(values, coef), rtol=0, atol=1e-12
        )
        assert np.array_equal(got[0], values[0])

    def test_filters_in_place(self):
        values = np.random.default_rng(3).standard_normal((50, 2))
        assert data_io._ar1(values, 0.9) is values

    def test_backbone_draws_are_unchanged(self):
        # the scan draws nothing, so _backbone takes the same values from
        # its stream, in the same order, as when lfilter did the filtering
        n, d = 700, 3
        rng = np.random.default_rng(11)
        got = data_io._backbone(n, d, rng)
        replay = np.random.default_rng(11)
        q1, _ = np.linalg.qr(replay.standard_normal((d, d)))
        q2, _ = np.linalg.qr(replay.standard_normal((d, d)))
        mixing = (q1 * data_io._SINGULAR_DECAY ** np.arange(d)) @ q2
        latent = sequential_ar1(replay.standard_normal((n, d)), 0.9)
        noise = data_io._OBS_NOISE * replay.standard_normal((n, d))
        np.testing.assert_allclose(
            got, latent @ mixing.T + noise, rtol=0, atol=1e-12
        )
        # both streams end at the same state
        assert rng.bit_generator.state == replay.bit_generator.state


# ---------------------------------------------------------------------------
# The loaders against a per-row reference reader: the row-by-row parsing
# the blocked reader replaced, with the one field-count spelling it chose


def ref_cell(token, path, line_no, column):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: not a number: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: "
            f"non-finite value {token!r}"
        )
    return value


def ref_flag(token, path, line_no, column):
    value = ref_cell(token, path, line_no, column)
    if value not in (0.0, 1.0):
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: "
            f"expected 0 or 1, got {token!r}"
        )
    return int(value)


def ref_rows(path, width):
    """(line number, row) of every data row, after checking its width."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                fields = "field" if width == 1 else "fields"
                raise ValueError(
                    f"{path}: line {line_no}: expected {width} {fields}, "
                    f"got {len(row)}"
                )
            yield line_no, row


def ref_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh), None)


def ref_frame(path):
    header = ref_header(path)
    if header is None:
        raise ValueError(f"{path}: empty file")
    has_label = bool(header) and header[-1] == "label"
    channels = header[:-1] if has_label else header
    if not channels:
        raise ValueError(f"{path}: no channel columns in header {header}")
    rows, flags = [], []
    for line_no, row in ref_rows(path, len(header)):
        rows.append(
            [ref_cell(tok, path, line_no, c) for tok, c in zip(row, channels)]
        )
        if has_label:
            flags.append(ref_flag(row[-1], path, line_no, "label"))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows, (flags if has_label else None), tuple(channels)


def ref_column(path, column, parse):
    header = ref_header(path)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if header != [column]:
        raise ValueError(f"{path}: expected header {[column]}, got {header}")
    out = [parse(row[0], path, n, column) for n, row in ref_rows(path, 1)]
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out


def ref_labels(path):
    header = ref_header(path)
    if header == ["label"]:
        return ref_column(path, "label", ref_flag)
    # a frame without labels is refused at its header, before any row
    if header and header[-1] != "label":
        raise ValueError(f"{path}: frame has no label column")
    return ref_frame(path)[1]


def ref_events(path, end_exclusive):
    header = ref_header(path)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if header != ["start", "end"]:
        raise ValueError(
            f"{path}: expected header ['start', 'end'], got {header}"
        )
    events = []
    for line_no, row in ref_rows(path, 2):
        try:
            start, end = int(row[0]), int(row[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {line_no}: non-integer bounds {row!r}"
            ) from None
        try:
            events.append(Segment(start, end - end_exclusive))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return events


NUMBERS = ["0", "-2.5", "0.125", "1e3", " 1", "1_0", "+.5", "٣"]
NUMBER_FAULTS = ["x", "", "nan", "inf", "-inf", "1e400", "0x10"]
FLAGS = ["0", "1", "1.0", "-0", " 1", "\u0661"]
FLAG_FAULTS = ["2", "0.5", "x", "nan", ""]
# a fault in either bound column can also be a segment ending before it
# starts
CELLS = {
    "number": (NUMBERS, NUMBER_FAULTS),
    "flag": (FLAGS, FLAG_FAULTS),
    "start": (["0", "3", " 2"], ["-1", "1.5", "x", "", "12"]),
    "end": (["7", " 9", "1_0"], ["-1", "1.5", "x", "", "1"]),
}
# quoted cells, valid or not for any kind: a number, an empty cell, a
# comma, a newline, and an unterminated quote that runs to the end of file
QUOTED = ['"1"', '""', '"0,1"', '"1\n"', '"1']


@st.composite
def csv_cases(draw):
    """(loader name, file text); most cells valid, some faulty."""
    name = draw(
        st.sampled_from(["frame", "labels", "predictions", "scores", "events"])
    )
    channels = draw(st.integers(min_value=1, max_value=3))
    frame = [f"c{i}" for i in range(channels)]
    header, kinds = {
        "frame": (frame, ["number"] * channels),
        "labels": (["label"], ["flag"]),
        "predictions": (["prediction"], ["flag"]),
        "scores": (["score"], ["number"]),
        "events": (["start", "end"], ["start", "end"]),
    }[name]
    if name in ("frame", "labels") and draw(st.booleans()):
        header, kinds = frame + ["label"], ["number"] * channels + ["flag"]
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        header = draw(st.sampled_from([[], ["c0"], ["label"], ["value"]]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = []
        for kind in kinds:
            valid, faults = CELLS[kind]
            pick = draw(st.integers(0, 39))
            pool = faults if pick == 0 else QUOTED if pick == 1 else valid
            row.append(draw(st.sampled_from(pool)))
        fault = draw(st.integers(min_value=0, max_value=39))
        if fault == 0:
            row = []  # a blank line
        elif fault == 1:
            row = row[:-1]
        elif fault == 2:
            row = row + ["0"]
        lines.append(",".join(row))
    # LF or CRLF, now and then a lone CR or no newline after the last line
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.integers(min_value=0, max_value=29)) == 0:
        text = ""
    return name, text


def loaded(name, path, end_exclusive):
    """What a loader returns, as plain lists."""
    if name == "frame":
        frame = load_frame(path)
        labels = None if frame.labels is None else frame.labels.values.tolist()
        return frame.values.tolist(), labels, frame.channel_names
    if name == "labels":
        return load_label_series(path).values.tolist()
    if name == "predictions":
        return load_prediction_series(path).values.tolist()
    if name == "scores":
        return load_score_series(path).tolist()
    return load_events(path, end_exclusive=end_exclusive).tolist()


def referenced(name, path, end_exclusive):
    if name == "frame":
        return ref_frame(path)
    if name == "labels":
        return ref_labels(path)
    if name == "predictions":
        return ref_column(path, "prediction", ref_flag)
    if name == "scores":
        return ref_column(path, "score", ref_cell)
    return [[ev.start, ev.end] for ev in ref_events(path, end_exclusive)]


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(
    csv_cases(),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_loaders_match_per_row_reference(
    tmp_path_factory, case, block_chars, block_rows, excl
):
    # small blocks of characters and of csv.reader rows, so that a dozen
    # rows cross several block boundaries, read with and without csv.reader
    name, text = case
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text, newline="")
    with mock.patch.object(data_io, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(data_io, "_BLOCK_ROWS", block_rows):
        got = outcome(loaded, name, path, excl)
    assert got == outcome(referenced, name, path, excl)


# floats whose repr is unusual, and channel names csv.writer must quote
FRAME_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False
)
CHANNEL_NAMES = st.text(alphabet='ab, "\r\n', max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_write_frame_bytes_match_write_rows(tmp_path_factory, data, block):
    # write_frame joins its rows as text; _write_rows, the writer of every
    # other CSV, is its reference
    channels = data.draw(st.integers(min_value=1, max_value=3))
    points = data.draw(st.integers(min_value=1, max_value=7))
    row = st.lists(FRAME_FLOATS, min_size=channels, max_size=channels)
    values = data.draw(st.lists(row, min_size=points, max_size=points))
    names = data.draw(
        st.lists(CHANNEL_NAMES, min_size=channels, max_size=channels)
    )
    flags = data.draw(
        st.none()
        | st.lists(st.integers(0, 1), min_size=points, max_size=points)
    )
    frame = MvtsFrame(
        values=np.array(values),
        channel_names=tuple(names),
        labels=None if flags is None else LabelSeries(flags),
    )
    folder = tmp_path_factory.mktemp("frame")
    with mock.patch.object(data_io, "_BLOCK_ROWS", block):
        write_frame(frame, folder / "frame.csv")
    rows = frame.values.tolist()
    if flags is not None:
        names, rows = names + ["label"], [r + [f] for r, f in zip(rows, flags)]
    data_io._write_rows(folder / "rows.csv", names, rows)
    written = (folder / "frame.csv").read_bytes()
    assert written == (folder / "rows.csv").read_bytes()
