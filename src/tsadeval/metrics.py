"""Binary series containers, run-length segmentation and the point-wise rates.

Everything downstream (protocols, the random-flag study, the PCA baseline)
is built on the primitives here. Conventions used throughout the package:

* indices are 0-based; segments are inclusive on both ends,
* the runs of 1s in a series are represented by two read-only int64
  arrays, ``starts`` and ``ends``, found once per series and cached;
  Segment objects are built from them only for the public
  ``events``/``segments``/``segmentize`` views (file IO reads and writes
  events as (n, 2) int64 bounds),
* labels and predictions must be exactly 0/1 (booleans are accepted,
  anything else is rejected rather than coerced),
* precision, recall and F1 are defined as 0.0 whenever their denominator
  is 0, and the false-alarm rate of a series with no normal points is 0.0;
  ``_ratio`` is the one place a zero denominator becomes 0.0, for scalar
  and array rates alike,
* ``_check_range`` is the one check of a scalar against bounds, in the
  library and the CLI alike; NaN lies outside every range.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Segment",
    "LabelSeries",
    "PredictionSeries",
    "ConfusionCounts",
    "as_binary_array",
    "segmentize",
    "require_same_length",
    "point_confusion",
    "precision_recall_f1",
    "prf_from_counts",
    "harmonic_f1",
    "false_alarm_rate",
]

FAR_NO_NORMAL_WARNING = (
    "false_alarm_rate over a series with no normal points; "
    "returning 0.0 by convention"
)

FlagsLike = Union[Sequence[int], Iterable[int], np.ndarray]


@dataclass(frozen=True, order=True)
class Segment:
    """Maximal run of consecutive positive points, both ends inclusive."""

    start: int
    end: int

    def __post_init__(self) -> None:
        # data_io._event_error words the same faults of a bounds row
        _check_range("segment start", self.start, 0)
        if not self.end >= self.start:
            raise ValueError(
                f"segment end {self.end} precedes start {self.start}"
            )

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "Segment") -> bool:
        return self.start <= other.end and other.start <= self.end


def as_binary_array(flags: FlagsLike) -> np.ndarray:
    """Validate a 0/1 sequence and return it as a 1-D int8 array.

    Raises ValueError on any value other than 0 or 1; nothing is rounded
    or clipped on the way in.
    """
    arr = np.asarray(flags)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.int8)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"flags must be numeric 0/1, got dtype {arr.dtype}")
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"flags must be exactly 0 or 1; index {first} holds {arr[first]!r}"
        )
    return arr.astype(np.int8)


def _run_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive (starts, ends) of the maximal runs of 1s in a 0/1 array."""
    padded = np.zeros(values.size + 2, dtype=bool)
    padded[1:-1] = values
    # np.diff of booleans marks each change; with False on both sides the
    # changes alternate between a run's start and one past its end
    changes = np.flatnonzero(np.diff(padded))
    return changes[::2], changes[1::2] - 1


def _as_segments(starts: np.ndarray, ends: np.ndarray) -> list[Segment]:
    return [Segment(s, e) for s, e in zip(starts.tolist(), ends.tolist())]


def segmentize(flags: FlagsLike) -> list[Segment]:
    """Extract the maximal runs of 1s as inclusive segments, in order."""
    return _as_segments(*_run_bounds(as_binary_array(flags)))


class _BinarySeries:
    """Immutable 0/1 series with lazily cached run bounds."""

    __slots__ = ("values", "_bounds")

    def __init__(self, values: FlagsLike):
        arr = as_binary_array(values)
        if arr.size == 0:
            raise ValueError("series must hold at least one point")
        arr.setflags(write=False)
        self.values: np.ndarray = arr
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    @property
    def n_points(self) -> int:
        return int(self.values.size)

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.values))

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        if self._bounds is None:
            starts, ends = _run_bounds(self.values)
            starts.setflags(write=False)
            ends.setflags(write=False)
            self._bounds = (starts, ends)
        return self._bounds

    @property
    def starts(self) -> np.ndarray:
        """First index of each run of 1s, ascending (read-only int64)."""
        return self._runs()[0]

    @property
    def ends(self) -> np.ndarray:
        """Last index, inclusive, of each run of 1s (read-only int64)."""
        return self._runs()[1]


class LabelSeries(_BinarySeries):
    """Ground-truth series; its positive runs are the anomalous events."""

    @property
    def events(self) -> list[Segment]:
        return _as_segments(self.starts, self.ends)

    @property
    def n_events(self) -> int:
        return int(self.starts.size)

    @property
    def n_anomalous(self) -> int:
        return self.n_positive

    @property
    def n_normal(self) -> int:
        return self.n_points - self.n_positive

    @property
    def contamination_rate(self) -> float:
        return self.n_positive / self.n_points


class PredictionSeries(_BinarySeries):
    """Detector output series; its positive runs are predicted segments."""

    @property
    def segments(self) -> list[Segment]:
        return _as_segments(self.starts, self.ends)


@dataclass(frozen=True)
class ConfusionCounts:
    """Point-level confusion counts for one (labels, predictions) pair."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            _check_range(name, getattr(self, name), 0)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def require_same_length(
    labels: LabelSeries, preds: PredictionSeries
) -> None:
    """Raise ValueError unless labels and predictions have equal length."""
    if len(labels) != len(preds):
        raise ValueError(
            f"length mismatch: {len(labels)} labels vs {len(preds)} predictions"
        )


def point_confusion(
    labels: LabelSeries, preds: PredictionSeries
) -> ConfusionCounts:
    """Count point-level TP/FP/FN/TN; series lengths must match."""
    require_same_length(labels, preds)
    lv = labels.values
    pv = preds.values
    tp = int(np.count_nonzero(lv & pv))
    fp = int(np.count_nonzero(pv)) - tp
    fn = int(np.count_nonzero(lv)) - tp
    tn = lv.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _check_range(name: str, value, low, high=math.inf, ends="[]") -> None:
    """Reject a value outside the interval from low to high, each end
    closed ("[", "]") or open ("(", ")") as ends says; NaN lies outside
    every interval. With no high the message reads "must be >= low" (or
    "> low"), plus "and finite" if ends leaves out infinity."""
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below):
        if high == math.inf:
            want = f"be {'>=' if ends[0] == '[' else '>'} {low}"
            want += " and finite" if ends[1] == ")" else ""
        else:
            want = f"lie in {ends[0]}{low}, {high}{ends[1]}"
        raise ValueError(f"{name} must {want}, got {value}")


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer. Bools are not: JSON's
    true and false would otherwise pass for 1 and 0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _ratio(num, den):
    """num / den, 0.0 wherever den is 0: a float for scalars, else an
    array of the broadcast shape, by the same float64 division."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    shape = np.broadcast(num, den).shape
    out = np.divide(num, den, out=np.zeros(shape), where=den > 0)
    return float(out) if out.ndim == 0 else out


def harmonic_f1(precision, recall):
    """Harmonic mean of precision and recall, 0.0 when both are 0."""
    return _ratio(2.0 * precision * recall, precision + recall)


def prf_from_counts(tp, fp, fn):
    """(precision, recall, f1) from possibly fractional expected counts.

    Zero denominators yield 0.0 rather than raising, so degenerate series
    (no positives anywhere) score 0 instead of crashing a sweep. Scalar
    counts give floats; arrays of counts (broadcast together) give arrays,
    computed elementwise with the same operations.
    """
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    return precision, recall, harmonic_f1(precision, recall)


def precision_recall_f1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """(precision, recall, f1) under the zero-denominator-is-zero convention."""
    return prf_from_counts(counts.tp, counts.fp, counts.fn)


def false_alarm_rate(counts: ConfusionCounts) -> float:
    """FP / (FP + TN). A series with no normal points has FAR 0.0."""
    normal = counts.fp + counts.tn
    if normal == 0:
        warnings.warn(FAR_NO_NORMAL_WARNING, stacklevel=2)
    return _ratio(counts.fp, normal)
