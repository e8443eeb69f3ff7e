"""File formats, synthetic data generation and label consistency checks.

CSV conventions (all headers mandatory, all indices 0-based):

* frame:        ``c0,...,c{D-1}[,label]`` with float cells; the optional
                trailing ``label`` column holds 0/1,
* events:       ``start,end`` with inclusive integer bounds (an
                end-exclusive variant is converted on load),
* labels:       single ``label`` column,
* predictions:  single ``prediction`` column,
* scores:       single ``score`` column of finite floats.

All writers are atomic (temp file in the target directory, then rename),
so a crashed run never leaves a half-written artifact behind.
"""

from __future__ import annotations

import csv
import hashlib
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
from scipy import signal

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
    or "wb" for binary.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    handle = os.fdopen(fd, mode, newline=None if "b" in mode else "")
    try:
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


def write_csv(
    path: "str | Path", fieldnames: Sequence[str], rows: Iterable[dict]
) -> None:
    """Write dict rows atomically with a fixed header."""
    with atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


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


def _parse_cell(token: str, path, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: "
            f"not a number: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: "
            f"non-finite value {token!r}"
        )
    return value


def _parse_flag(token: str, path, line_no: int, column: str) -> int:
    value = _parse_cell(token, path, line_no, column)
    if value not in (0.0, 1.0):
        raise ValueError(
            f"{path}: line {line_no}: column {column!r}: "
            f"expected 0 or 1, got {token!r}"
        )
    return int(value)


def load_frame(path: "str | Path") -> MvtsFrame:
    """Read a frame CSV; a trailing `label` column becomes the labels."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        has_label = bool(header) and header[-1] == "label"
        channels = header[:-1] if has_label else header
        if not channels:
            raise ValueError(f"{path}: no channel columns in header {header}")
        width = len(header)
        rows: list[list[float]] = []
        flags: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {line_no}: expected {width} fields, "
                    f"got {len(row)}"
                )
            rows.append(
                [
                    _parse_cell(tok, path, line_no, channels[i])
                    for i, tok in enumerate(row[: len(channels)])
                ]
            )
            if has_label:
                flags.append(_parse_flag(row[-1], path, line_no, "label"))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labels = LabelSeries(np.array(flags, dtype=np.int8)) if has_label else None
    return MvtsFrame(
        values=np.array(rows, dtype=np.float64),
        channel_names=tuple(channels),
        labels=labels,
    )


def write_frame(frame: MvtsFrame, path: "str | Path") -> None:
    """Write a frame CSV; floats use shortest round-trip formatting."""
    header = list(frame.channel_names)
    if frame.labels is not None:
        header.append("label")
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        labels = frame.labels.values if frame.labels is not None else None
        for i in range(frame.n_points):
            row = [repr(float(v)) for v in frame.values[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def _single_column(
    path: "str | Path", column: str, parse
) -> list:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != [column]:
            raise ValueError(
                f"{path}: expected single-column header [{column!r}], "
                f"got {header}"
            )
        out = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 1:
                raise ValueError(
                    f"{path}: line {line_no}: expected 1 field, got {len(row)}"
                )
            out.append(parse(row[0], path, line_no, column))
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out


def load_label_series(path: "str | Path") -> LabelSeries:
    """Read labels from a `label`-only CSV or a frame CSV with labels."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header == ["label"]:
        return LabelSeries(
            np.array(_single_column(path, "label", _parse_flag), dtype=np.int8)
        )
    frame = load_frame(path)
    if frame.labels is None:
        raise ValueError(f"{path}: frame has no label column")
    return frame.labels


def load_prediction_series(path: "str | Path") -> PredictionSeries:
    """Read a `prediction`-only CSV of 0/1 flags."""
    return PredictionSeries(
        np.array(
            _single_column(path, "prediction", _parse_flag), dtype=np.int8
        )
    )


def load_score_series(path: "str | Path") -> np.ndarray:
    """Read a `score`-only CSV of finite floats."""
    return np.array(_single_column(path, "score", _parse_cell), dtype=float)


# ---------------------------------------------------------------------------
# events


def load_events(
    path: "str | Path", end_exclusive: bool = False
) -> list[Segment]:
    """Read a `start,end` CSV of integer event bounds.

    Bounds are inclusive by default; pass end_exclusive=True for files
    whose end column points one past the last anomalous index. Everything
    downstream of this loader is inclusive.
    """
    path = Path(path)
    events: list[Segment] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["start", "end"]:
            raise ValueError(
                f"{path}: expected header ['start', 'end'], got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected 2 fields, got {len(row)}"
                )
            try:
                start, end = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-integer bounds {row!r}"
                ) from None
            if end_exclusive:
                end -= 1
            try:
                events.append(Segment(start, end))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return events


def write_events(
    events: Iterable[Segment], path: "str | Path", end_exclusive: bool = False
) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end"])
        for ev in events:
            writer.writerow([ev.start, ev.end + (1 if end_exclusive else 0)])


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
