"""File formats, synthetic data generation and label consistency checks.

CSV conventions (UTF-8 whatever the locale, a leading BOM skipped on
read, all headers mandatory, all indices 0-based):

* frame:        ``c0,...,c{D-1}[,label]`` with float cells; the optional
                trailing ``label`` column holds 0/1,
* events:       ``start,end`` with inclusive integer bounds (an
                end-exclusive variant is converted on load), held in
                memory as an (n, 2) int64 array of starts and ends,
* labels:       single ``label`` column,
* predictions:  single ``prediction`` column,
* scores:       single ``score`` column of finite floats.

One reader, ``_read_csv``, parses every file. Past the header it splits
blocks of lines on their commas without ``csv.reader`` when they hold no
quote, end their lines in LF or CRLF, and have the header's field count:
``csv.reader`` would make the same tokens of them. From the first block
that fails this, or holds a bad cell, ``csv.reader`` parses the rest, and
only that path words an error, so values and errors do not depend on
which path ran. A block of a single flag column whose every line is
exactly ``0`` or ``1`` is converted from its bytes, without float
parsing; any other spelling of a flag takes the numpy conversion. One
writer, ``_write_rows``, writes every CSV but frames, whose body
``write_frame`` joins as text to the same bytes. All writers are atomic
(temp file in the target directory, then rename), so a crashed run never
leaves a half-written artifact behind; files get the mode ``open()``
would give.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from tsadeval.metrics import (
    LabelSeries,
    PredictionSeries,
    Segment,
    _check_count,
    _check_range,
    segmentize,
)

__all__ = [
    "MvtsFrame",
    "load_frame",
    "write_frame",
    "load_events",
    "write_events",
    "labels_from_events",
    "load_label_series",
    "load_prediction_series",
    "load_score_series",
    "DisagreementRun",
    "ConsistencyReport",
    "check_label_consistency",
    "AnomalySignal",
    "SyntheticSpec",
    "load_synthetic_spec",
    "place_events",
    "synthetic_labels",
    "generate_synthetic",
    "generate_train_test",
    "atomic_open",
    "atomic_write_text",
    "write_csv",
    "sha256_digest",
]


# ---------------------------------------------------------------------------
# atomic writing


@contextmanager
def atomic_open(path: "str | Path", mode: str = "w") -> Iterator:
    """Open a temp file for writing and rename it over `path` on success.

    mode is "w" for UTF-8 text, with no newline translation (what csv
    expects), or "wb" for binary. The file gets the mode a plain open()
    would give it (0o666 less the umask).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the path asked for, not the random temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    handle = os.fdopen(fd, mode, **text)
    try:
        yield handle
        handle.close()
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        handle.close()
        os.unlink(tmp)
        raise


def atomic_write_text(path: "str | Path", text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# CSV reading and writing

# Rows converted or formatted at once; only one block of rows is held as
# Python objects, however long the file.
_BLOCK_ROWS = 1024
# Characters read at once, then on to the end of a line, until a block
# needs csv.reader
_BLOCK_CHARS = 1 << 16


def _cell(value):
    """Spell a cell: a float (numpy's too) as the repr of a Python float,
    the shortest text that reads back exactly; None as empty; a bool as
    true/false; anything else as csv spells it."""
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _write_rows(
    path: "str | Path", header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_csv(
    path: "str | Path", fieldnames: Sequence[str], rows: Iterable[dict]
) -> None:
    """Write dict rows atomically with a fixed header."""
    cells = ([row[name] for name in fieldnames] for row in rows)
    _write_rows(path, fieldnames, cells)


def _parse_row(row: list, header: list, kinds: list, path, line_no: int):
    """A row as a 1-row array, parsed cell by cell: raises on its first bad
    cell, naming the line and column."""
    where = f"{path}: line {line_no}"
    if len(row) != len(kinds):
        fields = "field" if len(kinds) == 1 else "fields"
        raise ValueError(
            f"{where}: expected {len(kinds)} {fields}, got {len(row)}"
        )
    if "bound" in kinds:
        try:
            return np.array([[int(tok) for tok in row]], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{where}: non-integer bounds {row!r}") from None
        except OverflowError:
            raise ValueError(
                f"{where}: bounds beyond 64-bit integers {row!r}"
            ) from None
    cells = []
    for token, column, kind in zip(row, header, kinds):
        cell = f"{where}: column {column!r}"
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"{cell}: not a number: {token!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{cell}: non-finite value {token!r}")
        if kind == "flag" and value not in (0.0, 1.0):
            raise ValueError(f"{cell}: expected 0 or 1, got {token!r}")
        cells.append(value)
    return np.array([cells])


def _converted(tokens, kinds: list, rows: int):
    """tokens, row after row, as a (rows, len(kinds)) array from one numpy
    conversion, or None unless every cell passes its kind's check (a
    number, finite, 0 or 1 for a flag) and each row has len(kinds)
    cells."""
    dtype = np.int64 if "bound" in kinds else float
    try:
        values = np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        return None
    if values.size != rows * len(kinds):
        return None
    values = values.reshape(rows, len(kinds))
    flags = values[:, [kind == "flag" for kind in kinds]]
    if np.isfinite(values).all() and ((flags == 0) | (flags == 1)).all():
        return values
    return None


def _pieces(block: list, first_line: int, header, kinds, path):
    """Yield (first line, values) of a block of csv.reader rows: all rows
    at once if they pass every check, else row by row, so that the first
    bad cell in file order raises."""
    values = _converted(block, kinds, len(block))
    if values is not None:
        yield first_line, values
        return
    for line_no, row in enumerate(block, start=first_line):
        yield line_no, _parse_row(row, header, kinds, path, line_no)


def _plain_block(text: str, kinds: list):
    """The values of `text`, whole lines read past the header, if
    csv.reader would split each line on its commas alone and every cell
    passes its check; else None.

    That holds when the text holds no quote and its lines end in \\n or
    \\r\\n (csv.reader ends a record at a lone \\r too), each line has
    len(kinds) - 1 commas, and no field can exceed csv's field size limit.
    Each line is then one record, its tokens are csv.reader's, and the
    numpy call that converts them is _pieces' own. A lone flag column
    whose lines are all exactly 0 or 1 skips that call: its values are
    its bytes less b"0", as the same floats.
    """
    if '"' in text or len(text) > csv.field_size_limit():
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    if kinds == ["flag"]:
        # every line exactly 0 or 1: the characters alternate between a
        # flag and a newline, and the flags' bytes less b"0" are the values
        flags = text[::2]
        if not flags.strip("01") and not text[1::2].strip("\n"):
            values = np.frombuffer(flags.encode("ascii"), dtype=np.uint8)
            return (values - 48.0).reshape(-1, 1)
    rows = text.split("\n")
    if not rows[-1]:  # the last line ended in a newline
        rows.pop()
    if len(kinds) == 1:  # no comma anywhere, found without a per-line count
        if "," in text:
            return None
        tokens = rows
    else:
        commas = set(map(str.count, rows, itertools.repeat(",")))
        if commas != {len(kinds) - 1}:
            return None
        tokens = ",".join(rows).split(",")
    return _converted(tokens, kinds, len(rows))


def _records(lines, path: Path, line: int):
    """csv.reader's records of `lines`, the first being line `line`; its
    csv.Error (a field over csv.field_size_limit()) becomes a ValueError
    that names the line of the record it stopped in."""
    try:
        for record in csv.reader(lines):
            yield record
            line += 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None


def _read_csv(path: "str | Path", kinds_for, check=None, empty_ok=False):
    """Read a headed CSV as (header, values).

    kinds_for(path, header) checks the header (None if the file is empty)
    and returns each column's kind: "number" (finite, as float() reads
    it), "flag" (0 or 1) or "bound" (int64, as int() reads it). No data
    rows is an error unless empty_ok. Line numbers count CSV records, the
    header being line 1. check(values, first_line) sees each piece of rows
    before later rows are parsed, so its errors keep file order too.

    csv.reader reads the header. The body is then read in blocks of whole
    lines of about _BLOCK_CHARS characters, and a block that _plain_block
    accepts is split on its commas without csv.reader. The first block it
    refuses (a quote, a lone \\r, a wrong field count, a bad cell) and the
    rest of the file go through csv.reader, _BLOCK_ROWS records at a time;
    a block that fails its checks there is parsed row by row, and that
    path alone words the errors. Both paths make the same tokens and
    convert them with the same numpy call, so they return the same values.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(_records(fh, path, 1), None)
            kinds = kinds_for(path, header)
            pieces, first_line = [], 2
            rest = ()
            while text := fh.read(_BLOCK_CHARS):
                text += fh.readline()  # up to the end of the line cut by read
                values = _plain_block(text, kinds)
                if values is None:
                    # the lines as the file gives them: \r, \n and \r\n end one
                    rest = itertools.chain(io.StringIO(text, newline=""), fh)
                    break
                if check is not None:
                    check(values, first_line)
                pieces.append(values)
                first_line += len(values)
            reader = _records(rest, path, first_line)
            while block := list(itertools.islice(reader, _BLOCK_ROWS)):
                pieces_of_block = _pieces(block, first_line, header, kinds, path)
                for line_no, values in pieces_of_block:
                    if check is not None:
                        check(values, line_no)
                    pieces.append(values)
                first_line += len(block)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not pieces and not empty_ok:
        raise ValueError(f"{path}: no data rows")
    return header, np.concatenate(pieces or [np.empty((0, len(kinds)))])


def sha256_digest(path: "str | Path") -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# multivariate frames


@dataclass(frozen=True)
class MvtsFrame:
    """A multivariate series (rows are time, columns are channels).

    Values are float64 and finite. Labels, when present, align with rows.
    """

    values: np.ndarray
    channel_names: tuple = ()
    labels: Optional[LabelSeries] = None

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("frame needs at least one row and one channel")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        names = tuple(self.channel_names) or tuple(
            f"c{i}" for i in range(arr.shape[1])
        )
        if len(names) != arr.shape[1]:
            raise ValueError(
                f"{len(names)} channel names for {arr.shape[1]} channels"
            )
        object.__setattr__(self, "channel_names", names)
        if self.labels is not None and len(self.labels) != arr.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {arr.shape[0]} rows"
            )

    @property
    def n_points(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_channels(self) -> int:
        return int(self.values.shape[1])


def _frame_kinds(path: Path, header) -> list:
    if header is None:
        raise ValueError(f"{path}: empty file")
    channels = len(header) - (header[-1:] == ["label"])
    if channels == 0:
        raise ValueError(f"{path}: no channel columns in header {header}")
    return ["number"] * channels + ["flag"] * (len(header) - channels)


def load_frame(path: "str | Path") -> MvtsFrame:
    """Read a frame CSV; a trailing `label` column becomes the labels."""
    header, values = _read_csv(path, _frame_kinds)
    if header[-1] != "label":
        return MvtsFrame(values=values, channel_names=tuple(header))
    return MvtsFrame(
        values=values[:, :-1],
        channel_names=tuple(header[:-1]),
        labels=LabelSeries(values[:, -1].astype(np.int8)),
    )


def write_frame(frame: MvtsFrame, path: "str | Path") -> None:
    """Write a frame CSV; floats use shortest round-trip formatting.

    The bytes are _write_rows' own. The header goes through csv.writer, as
    a channel name may need quoting; a body cell never does (a finite
    float's repr, or a 0/1 label), so each block of rows is joined as text.
    """
    header = list(frame.channel_names)
    if frame.labels is not None:
        header.append("label")
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, frame.n_points, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = frame.values[block].tolist()
            lines = [",".join(map(repr, row)) for row in rows]
            if frame.labels is not None:
                flags = frame.labels.values[block].tolist()
                lines = [f"{line},{flag}" for line, flag in zip(lines, flags)]
            fh.write("\r\n".join(lines) + "\r\n")


def _one_column(path: "str | Path", column: str, kind: str) -> np.ndarray:
    """The values of a CSV whose header is the single column `column`."""

    def kinds_for(path: Path, header) -> list:
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header != [column]:
            raise ValueError(
                f"{path}: expected single-column header [{column!r}], "
                f"got {header}"
            )
        return [kind]

    return _read_csv(path, kinds_for)[1][:, 0]


def load_label_series(path: "str | Path") -> LabelSeries:
    """Read labels from a `label`-only CSV or a frame CSV with labels."""
    path = Path(path)

    def kinds_for(path: Path, header) -> list:
        if header == ["label"]:
            return ["flag"]
        kinds = _frame_kinds(path, header)
        if header[-1] != "label":
            raise ValueError(f"{path}: frame has no label column")
        return kinds

    return LabelSeries(_read_csv(path, kinds_for)[1][:, -1].astype(np.int8))


def load_prediction_series(path: "str | Path") -> PredictionSeries:
    """Read a `prediction`-only CSV of 0/1 flags."""
    flags = _one_column(path, "prediction", "flag")
    return PredictionSeries(flags.astype(np.int8))


def load_score_series(path: "str | Path") -> np.ndarray:
    """Read a `score`-only CSV of finite floats."""
    return _one_column(path, "score", "number")


# ---------------------------------------------------------------------------
# events


def _events_kinds(path: Path, header) -> list:
    if header != ["start", "end"]:
        raise ValueError(
            f"{path}: expected header ['start', 'end'], got {header}"
        )
    return ["bound", "bound"]


def _event_error(
    bounds: np.ndarray, shift: int = 0, total_points: Optional[int] = None
):
    """(row, message) for the first row of (n, 2) `bounds` that is no
    event of a series of total_points points, or None. A row's inclusive
    end is its second column less shift."""
    starts, ends = bounds[:, 0], bounds[:, 1]
    # ends <= starts, not ends - 1 < starts: the subtraction would wrap
    # around at the int64 minimum and accept that end
    bad = (starts < 0) | (ends <= starts if shift else ends < starts)
    if total_points is not None:
        bad |= ends - shift >= total_points
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    start, end = bounds[row].tolist()
    end -= shift
    if start < 0:
        return row, f"segment start must be >= 0, got {start}"
    if end < start:
        return row, f"segment end {end} precedes start {start}"
    return row, (
        f"event ({start}, {end}) exceeds series of length {total_points}"
    )


def load_events(
    path: "str | Path",
    end_exclusive: bool = False,
    total_points: Optional[int] = None,
) -> np.ndarray:
    """Read a `start,end` CSV as an (n, 2) int64 array of inclusive event
    bounds, starts in column 0 and ends in column 1, in file order.

    Pass end_exclusive=True for files whose end column points one past the
    last anomalous index; the bounds returned are inclusive either way.
    With total_points given, an event reaching past a series of that
    length is an error too. A file with a header and no events is allowed.
    """
    path = Path(path)
    shift = 1 if end_exclusive else 0
    if total_points is not None:
        _check_count("total_points", total_points, 1)

    def check(bounds: np.ndarray, first_line: int) -> None:
        found = _event_error(bounds, shift, total_points)
        if found is not None:
            row, message = found
            raise ValueError(f"{path}: line {first_line + row}: {message}")

    _, bounds = _read_csv(path, _events_kinds, check=check, empty_ok=True)
    bounds = bounds.astype(np.int64, copy=False)
    bounds[:, 1] -= shift
    return bounds


def _bounds(events) -> np.ndarray:
    """`events` as (n, 2) int64 bounds; bounds of another shape, or of a
    non-integer dtype that the cast would truncate, are an error."""
    bounds = np.asarray(events)
    if bounds.shape == (0,):  # an empty sequence: no events
        bounds = bounds.reshape(0, 2)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"events must have shape (n, 2), got {bounds.shape}")
    if bounds.size and not np.issubdtype(bounds.dtype, np.integer):
        raise ValueError(f"events must be integers, got dtype {bounds.dtype}")
    return bounds.astype(np.int64, copy=False)


def write_events(
    events: np.ndarray, path: "str | Path", end_exclusive: bool = False
) -> None:
    """Write (n, 2) inclusive event bounds as a `start,end` CSV; with
    end_exclusive=True each end is written one past the event."""
    shift = 1 if end_exclusive else 0
    rows = _bounds(events).tolist()
    _write_rows(path, ["start", "end"], ([s, e + shift] for s, e in rows))


def labels_from_events(events: np.ndarray, total_points: int) -> LabelSeries:
    """Paint (n, 2) inclusive event bounds onto a zero series of given
    length.

    Rows may come in any order; overlapping or adjacent events simply
    union. An empty sequence holds no events. Bounds of any other shape
    than (n, 2) or of a non-integer dtype, a negative start, an end before
    its start or an event reaching past the series end is an error.
    """
    _check_count("total_points", total_points, 1)
    bounds = _bounds(events)
    found = _event_error(bounds, total_points=total_points)
    if found is not None:
        raise ValueError(found[1])
    values = np.zeros(total_points, dtype=np.int8)
    for start, end in bounds.tolist():
        values[start : end + 1] = 1
    return LabelSeries(values)


# ---------------------------------------------------------------------------
# label consistency


@dataclass(frozen=True)
class DisagreementRun:
    """Maximal run where exactly one of the two label sources is positive."""

    segment: Segment
    direction: str  # "integrated-only" or "reconstructed-only"


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of comparing integrated labels against reconstructed ones."""

    total_points: int
    integrated_only: int
    reconstructed_only: int
    runs: tuple

    @property
    def is_consistent(self) -> bool:
        return self.integrated_only == 0 and self.reconstructed_only == 0

    def summary(self) -> str:
        if self.is_consistent:
            return f"consistent over {self.total_points} points"
        return (
            f"{self.integrated_only} points only in the integrated labels, "
            f"{self.reconstructed_only} only in the reconstruction, "
            f"across {len(self.runs)} runs"
        )


def check_label_consistency(
    integrated: LabelSeries, reconstructed: LabelSeries
) -> ConsistencyReport:
    """Compare per-point labels against labels rebuilt from an event list.

    Returns every maximal disagreement run with its direction, so an
    off-by-one in somebody's event export shows up as a 1-point run at a
    segment boundary instead of a bare mismatch count.
    """
    if len(integrated) != len(reconstructed):
        raise ValueError(
            f"length mismatch: {len(integrated)} vs {len(reconstructed)}"
        )
    diff = integrated.values - reconstructed.values
    runs = [
        DisagreementRun(segment=seg, direction="integrated-only")
        for seg in segmentize(diff == 1)
    ] + [
        DisagreementRun(segment=seg, direction="reconstructed-only")
        for seg in segmentize(diff == -1)
    ]
    runs.sort(key=lambda r: r.segment.start)
    return ConsistencyReport(
        total_points=len(integrated),
        integrated_only=int(np.count_nonzero(diff == 1)),
        reconstructed_only=int(np.count_nonzero(diff == -1)),
        runs=tuple(runs),
    )


# ---------------------------------------------------------------------------
# synthetic data


class AnomalySignal(str, Enum):
    """Kind of disturbance injected into anomalous ranges."""

    MEAN_SHIFT = "mean-shift"
    VARIANCE_BURST = "variance-burst"
    CHANNEL_DRIFT = "channel-drift"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic multivariate series.

    The seed is mandatory: identical specs must yield identical frames.
    gap_policy is the minimum number of normal points between consecutive
    events. It must be at least 1: events that touch would merge into one
    run, and the labels would hold fewer events than event_lengths.
    """

    total_points: int
    event_lengths: tuple
    n_channels: int
    anomaly_signal: AnomalySignal
    seed: int
    gap_policy: int = 10
    signal_strength: float = 3.0

    def __post_init__(self) -> None:
        for name in ("total_points", "n_channels", "gap_policy"):
            _check_count(name, getattr(self, name), 1)
        _check_count("seed", self.seed, 0)
        lengths = self.event_lengths
        if not isinstance(lengths, (list, tuple)):
            raise ValueError(
                f"event_lengths must be a list of integers, got {lengths!r}"
            )
        for length in lengths:
            _check_count("event_lengths", length, 1)
        object.__setattr__(self, "event_lengths", tuple(map(int, lengths)))
        try:
            signal = AnomalySignal(self.anomaly_signal)
        except ValueError:
            valid = ", ".join(s.value for s in AnomalySignal)
            raise ValueError(
                f"anomaly_signal must be one of {valid}, "
                f"got {self.anomaly_signal!r}"
            ) from None
        object.__setattr__(self, "anomaly_signal", signal)
        _check_range("signal_strength", self.signal_strength, 0, ends="()")
        n = len(self.event_lengths)
        needed = sum(self.event_lengths) + self.gap_policy * max(0, n - 1)
        if needed > self.total_points:
            raise ValueError(
                f"events need {needed} points (event_lengths plus gap_policy "
                f"gaps) but total_points is {self.total_points}"
            )


def load_synthetic_spec(path: "str | Path") -> SyntheticSpec:
    """Read a SyntheticSpec from JSON. Malformed JSON, unknown or missing
    keys and values of the wrong type are errors that name the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes())
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    keys = fields(SyntheticSpec)
    # the fields with no default are the required keys
    missing = {f.name for f in keys if f.default is MISSING} - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    unknown = raw.keys() - {f.name for f in keys}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return SyntheticSpec(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def place_events(
    total_points: int,
    event_lengths: Sequence[int],
    gap_policy: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Place events uniformly at random among all layouts that fit.

    Returns their inclusive bounds as an (n, 2) int64 array, in the order
    of event_lengths. The free slack (points not consumed by events or
    mandatory gaps) is split uniformly across the n+1 spaces around the
    events via the classic dividers construction, which makes every
    admissible layout equally likely.
    """
    _check_count("total_points", total_points, 1)
    for length in event_lengths:
        _check_count("event_lengths", length, 1)
    _check_count("gap_policy", gap_policy, 0)
    n = len(event_lengths)
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    lengths = np.asarray(event_lengths, dtype=np.int64)
    slack = total_points - sum(event_lengths) - gap_policy * (n - 1)
    if slack < 0:
        raise ValueError(
            f"events need {total_points - slack} points but only "
            f"{total_points} are available"
        )
    if slack == 0:
        extras = np.zeros(n + 1, dtype=np.int64)
    else:
        dividers = np.sort(rng.choice(slack + n, size=n, replace=False))
        bounds = np.concatenate(([-1], dividers, [slack + n]))
        extras = np.diff(bounds) - 1
    # the first event starts after its share of the slack, every later
    # one after the event before it, a gap and its own share
    starts = np.cumsum(
        np.concatenate((extras[:1], lengths[:-1] + gap_policy + extras[1:-1]))
    )
    return np.column_stack((starts, starts + lengths - 1))


def _spec_streams(spec: SyntheticSpec):
    """Independent child RNG streams so labels can be built without values."""
    values_ss, placement_ss, injection_ss = np.random.SeedSequence(
        spec.seed
    ).spawn(3)
    return (
        np.random.default_rng(values_ss),
        np.random.default_rng(placement_ss),
        np.random.default_rng(injection_ss),
    )


def synthetic_labels(spec: SyntheticSpec) -> LabelSeries:
    """Labels of generate_synthetic(spec) without generating the values.

    Placement draws from its own child seed stream, so this is exact (and
    cheap enough for very long series used in attack studies).
    """
    _, placement_rng, _ = _spec_streams(spec)
    events = place_events(
        spec.total_points, spec.event_lengths, spec.gap_policy, placement_rng
    )
    return labels_from_events(events, spec.total_points)


_AR_COEF = 0.9
_SINGULAR_DECAY = 0.55
_OBS_NOISE = 0.05


def _ar1(values: np.ndarray, coef: float) -> np.ndarray:
    """AR(1) filter y[t] = values[t] + coef * y[t-1] along axis 0, in place.

    A doubling scan: after the pass with step s, y[t] sums coef**k *
    values[t-k] over k < 2s, so at most log2(n) passes run, and fewer once
    coef**s underflows to 0 (13 for coef 0.9). It rounds in another order
    than the sequential recurrence, so the two differ in the last bits.
    """
    step, weight = 1, coef
    while step < len(values) and weight != 0.0:
        values[step:] += weight * values[:-step]
        step *= 2
        weight *= weight
    return values


def _backbone(
    n_points: int, n_channels: int, rng: np.random.Generator
) -> np.ndarray:
    """Normal regime: latent AR(1) factors through an ill-conditioned mix.

    The decaying singular values concentrate variance in a few directions,
    which is what gives a truncated PCA something to reconstruct. The
    AR(1) filter is _ar1's log-step scan.

    At most two frame-sized arrays are alive at once: the latent factors
    and their mix, then the mix and the observation noise, which is
    scaled and added in place.
    """
    q1, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    q2, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    singulars = _SINGULAR_DECAY ** np.arange(n_channels)
    mixing = (q1 * singulars) @ q2
    latent = _ar1(rng.standard_normal((n_points, n_channels)), _AR_COEF)
    values = latent @ mixing.T
    del latent
    noise = rng.standard_normal((n_points, n_channels))
    noise *= _OBS_NOISE
    values += noise
    return values


def _inject(
    values: np.ndarray,
    events: np.ndarray,
    sigma: np.ndarray,
    spec: SyntheticSpec,
    rng: np.random.Generator,
) -> None:
    d = spec.n_channels
    strength = spec.signal_strength
    for start, end in events.tolist():
        window = values[start : end + 1]
        if spec.anomaly_signal is AnomalySignal.MEAN_SHIFT:
            # a constant offset in a random raw-space direction, like a
            # stuck or re-zeroed sensor; deliberately ignores the channel
            # correlation structure so it stands out from the normal regime
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            window += strength * float(sigma.mean()) * direction * math.sqrt(d)
        elif spec.anomaly_signal is AnomalySignal.VARIANCE_BURST:
            window += strength * sigma * rng.standard_normal(window.shape)
        else:  # CHANNEL_DRIFT
            chans = rng.choice(d, size=max(1, d // 3), replace=False)
            for c in chans:
                window[:, c] += np.linspace(
                    0.0, strength * sigma[c], window.shape[0]
                )


def _generate(
    spec: SyntheticSpec, train_points: int
) -> tuple:
    """Values of train_points clean rows then the spec's test rows, and the
    test rows' labels."""
    values_rng, placement_rng, injection_rng = _spec_streams(spec)
    values = _backbone(
        train_points + spec.total_points, spec.n_channels, values_rng
    )
    sigma = values.std(axis=0)
    test_events = place_events(
        spec.total_points, spec.event_lengths, spec.gap_policy, placement_rng
    )
    _inject(values[train_points:], test_events, sigma, spec, injection_rng)
    return values, labels_from_events(test_events, spec.total_points)


def generate_synthetic(spec: SyntheticSpec) -> MvtsFrame:
    """Deterministic multivariate frame with labelled injected events.

    The positive runs of the labels reproduce spec.event_lengths exactly,
    because a spec's gap_policy of at least 1 keeps events apart.
    """
    values, labels = _generate(spec, train_points=0)
    return MvtsFrame(values=values, labels=labels)


def generate_train_test(
    spec: SyntheticSpec, train_points: int
) -> tuple:
    """(train, test) frames cut from one continuous regime.

    The first train_points rows form an anomaly-free training frame; the
    remaining spec.total_points rows carry the injected events and their
    labels. Useful for fitting a detector on clean data from the same
    process it is evaluated on.
    """
    _check_count("train_points", train_points, 1)
    values, labels = _generate(spec, train_points=train_points)
    train = MvtsFrame(
        values=values[:train_points],
        labels=LabelSeries(np.zeros(train_points, dtype=np.int8)),
    )
    return train, MvtsFrame(values=values[train_points:], labels=labels)
