"""File formats, synthetic data generation and label consistency checks.

CSV conventions (all headers mandatory, all indices 0-based):

* frame:        ``c0,...,c{D-1}[,label]`` with float cells; the optional
                trailing ``label`` column holds 0/1,
* events:       ``start,end`` with inclusive integer bounds (an
                end-exclusive variant is converted on load),
* labels:       single ``label`` column,
* predictions:  single ``prediction`` column,
* scores:       single ``score`` column of finite floats.

One reader, ``_read_csv``, parses every file and one writer,
``_write_rows``, writes every CSV. All writers are atomic (temp file in the
target directory, then rename), so a crashed run never leaves a
half-written artifact behind; files get the mode ``open()`` would give.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from tsadeval.metrics import LabelSeries, PredictionSeries, Segment, segmentize

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

    mode is "w" for text, with no newline translation (what csv expects),
    or "wb" for binary. The file gets the mode a plain open() would give
    it (0o666 less the umask), not mkstemp's private 0o600.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
    except OSError as exc:
        # name the path asked for, not the random temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    handle = os.fdopen(fd, mode, newline=None if "b" in mode else "")
    try:
        # the umask can only be read by setting it; outputs are written
        # from one thread, so nothing else creates a file in between
        umask = os.umask(0o077)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        yield handle
        handle.close()
        os.replace(tmp, path)
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


def _pieces(block: list, first_line: int, header, kinds, path):
    """Yield (first line, values) of a block of rows: all rows from one
    numpy conversion if they pass every check (field counts, finite
    numbers, 0/1 flags), else row by row, so that the first bad cell in
    file order raises."""
    try:
        values = np.array(block, dtype=np.int64 if "bound" in kinds else float)
    except (ValueError, OverflowError):
        values = None
    if values is not None and values.shape[1] == len(kinds):
        flags = values[:, [kind == "flag" for kind in kinds]]
        if np.isfinite(values).all() and ((flags == 0) | (flags == 1)).all():
            yield first_line, values
            return
    for line_no, row in enumerate(block, start=first_line):
        yield line_no, _parse_row(row, header, kinds, path, line_no)


def _read_csv(path: "str | Path", kinds_for, check=None, empty_ok=False):
    """Read a headed CSV as (header, values), _BLOCK_ROWS rows at a time.

    kinds_for(path, header) checks the header (None if the file is empty)
    and returns each column's kind: "number" (finite, as float() reads
    it), "flag" (0 or 1) or "bound" (int64, as int() reads it). No data
    rows is an error unless empty_ok. Line numbers count CSV records, the
    header being line 1. check(values, first_line) sees each piece of rows
    before later rows are parsed, so its errors keep file order too.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        kinds = kinds_for(path, header)
        pieces, first_line = [], 2
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            pieces_of_block = _pieces(block, first_line, header, kinds, path)
            for line_no, values in pieces_of_block:
                if check is not None:
                    check(values, line_no)
                pieces.append(values)
            first_line += len(block)
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
    """Write a frame CSV; floats use shortest round-trip formatting."""
    header = list(frame.channel_names)
    if frame.labels is not None:
        header.append("label")
    _write_rows(path, header, _frame_rows(frame))


def _frame_rows(frame: MvtsFrame) -> Iterator[list]:
    for start in range(0, frame.n_points, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = frame.values[block].tolist()
        if frame.labels is not None:
            for row, flag in zip(rows, frame.labels.values[block].tolist()):
                row.append(flag)
        yield from rows


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
        return ["flag"] if header == ["label"] else _frame_kinds(path, header)

    header, values = _read_csv(path, kinds_for)
    if header[-1] != "label":
        raise ValueError(f"{path}: frame has no label column")
    return LabelSeries(values[:, -1].astype(np.int8))


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


def load_events(
    path: "str | Path", end_exclusive: bool = False
) -> list[Segment]:
    """Read a `start,end` CSV of integer event bounds.

    Bounds are inclusive by default; pass end_exclusive=True for files
    whose end column points one past the last anomalous index. Everything
    downstream of this loader is inclusive. A file with a header and no
    events is allowed.
    """
    path = Path(path)
    shift = 1 if end_exclusive else 0
    events: list[Segment] = []

    def add_segments(bounds: np.ndarray, first_line: int) -> None:
        for line_no, (start, end) in enumerate(
            bounds.tolist(), start=first_line
        ):
            try:
                events.append(Segment(start, end - shift))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None

    _read_csv(path, _events_kinds, check=add_segments, empty_ok=True)
    return events


def write_events(
    events: Iterable[Segment], path: "str | Path", end_exclusive: bool = False
) -> None:
    shift = 1 if end_exclusive else 0
    _write_rows(
        path, ["start", "end"], ([ev.start, ev.end + shift] for ev in events)
    )


def labels_from_events(
    events: Iterable[Segment], total_points: int
) -> LabelSeries:
    """Paint inclusive event segments onto a zero series of given length.

    Overlapping or adjacent events simply union; an event reaching past
    the series end is an error.
    """
    if total_points < 1:
        raise ValueError("total_points must be >= 1")
    values = np.zeros(total_points, dtype=np.int8)
    for ev in events:
        if ev.end >= total_points:
            raise ValueError(
                f"event ({ev.start}, {ev.end}) exceeds series of length "
                f"{total_points}"
            )
        values[ev.start : ev.end + 1] = 1
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
    diff = integrated.values.astype(np.int8) - reconstructed.values
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
        object.__setattr__(
            self, "event_lengths", tuple(int(x) for x in self.event_lengths)
        )
        object.__setattr__(
            self, "anomaly_signal", AnomalySignal(self.anomaly_signal)
        )
        if self.total_points < 1:
            raise ValueError("total_points must be >= 1")
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        if any(length < 1 for length in self.event_lengths):
            raise ValueError("event lengths must be >= 1")
        if self.gap_policy < 1:
            raise ValueError(
                f"gap_policy must be >= 1, got {self.gap_policy}; "
                "events with no gap between them merge into one"
            )
        if self.signal_strength <= 0:
            raise ValueError("signal_strength must be > 0")
        n = len(self.event_lengths)
        needed = sum(self.event_lengths) + self.gap_policy * max(0, n - 1)
        if needed > self.total_points:
            raise ValueError(
                f"events need {needed} points (lengths plus gaps) but the "
                f"series has only {self.total_points}"
            )


_SPEC_REQUIRED = {
    "total_points",
    "event_lengths",
    "n_channels",
    "anomaly_signal",
    "seed",
}
_SPEC_OPTIONAL = {"gap_policy", "signal_strength"}


def load_synthetic_spec(path: "str | Path") -> SyntheticSpec:
    """Read a SyntheticSpec from JSON; unknown or missing keys are errors."""
    path = Path(path)
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = _SPEC_REQUIRED - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    unknown = raw.keys() - _SPEC_REQUIRED - _SPEC_OPTIONAL
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    return SyntheticSpec(**raw)


def place_events(
    total_points: int,
    event_lengths: Sequence[int],
    gap_policy: int,
    rng: np.random.Generator,
) -> list[Segment]:
    """Place events uniformly at random among all layouts that fit.

    The free slack (points not consumed by events or mandatory gaps) is
    split uniformly across the n+1 spaces around the events via the
    classic dividers construction, which makes every admissible layout
    equally likely. Event order follows event_lengths.
    """
    n = len(event_lengths)
    if n == 0:
        return []
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
    events = []
    cursor = int(extras[0])
    for i, length in enumerate(event_lengths):
        events.append(Segment(cursor, cursor + int(length) - 1))
        cursor += int(length) + gap_policy
        cursor += int(extras[i + 1])
    return events


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


def _backbone(
    n_points: int, n_channels: int, rng: np.random.Generator
) -> np.ndarray:
    """Normal regime: latent AR(1) factors through an ill-conditioned mix.

    The decaying singular values concentrate variance in a few directions,
    which is what gives a truncated PCA something to reconstruct.
    """
    # imported on first call, so that commands which generate no frame do
    # not pay for importing scipy
    from scipy import signal

    q1, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    q2, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    singulars = _SINGULAR_DECAY ** np.arange(n_channels)
    mixing = (q1 * singulars) @ q2
    innovations = rng.standard_normal((n_points, n_channels))
    latent = signal.lfilter([1.0], [1.0, -_AR_COEF], innovations, axis=0)
    return latent @ mixing.T + _OBS_NOISE * rng.standard_normal(
        (n_points, n_channels)
    )


def _inject(
    values: np.ndarray,
    events: Sequence[Segment],
    sigma: np.ndarray,
    spec: SyntheticSpec,
    rng: np.random.Generator,
) -> None:
    d = spec.n_channels
    strength = spec.signal_strength
    for ev in events:
        window = values[ev.start : ev.end + 1]
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
    shifted = [
        Segment(ev.start + train_points, ev.end + train_points)
        for ev in test_events
    ]
    _inject(values, shifted, sigma, spec, injection_rng)
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
    if train_points < 1:
        raise ValueError("train_points must be >= 1")
    values, labels = _generate(spec, train_points=train_points)
    train = MvtsFrame(
        values=values[:train_points],
        labels=LabelSeries(np.zeros(train_points, dtype=np.int8)),
    )
    return train, MvtsFrame(values=values[train_points:], labels=labels)
