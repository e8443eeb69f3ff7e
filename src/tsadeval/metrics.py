"""Binary series containers, run-length segmentation and the point-wise rates.

Everything downstream (protocols, the random-flag study, the PCA baseline)
is built on the primitives here. Conventions used throughout the package:

* indices are 0-based; segments are inclusive on both ends,
* the runs of 1s in a series are represented by two read-only int64
  arrays, ``starts`` and ``ends``, found when the series is built, beside
  its count of 1s, ``n_positive``; Segment objects are built from them
  only for the public ``events``/``segments``/``segmentize`` views (file
  IO reads and writes events as (n, 2) int64 bounds),
* labels and predictions must be exactly 0/1 (booleans are accepted,
  anything else is rejected rather than coerced),
* a value that keeps read-only arrays, here or in another module, is a
  frozen dataclass on ``_Value``, which pickles, copies and compares it,
* precision, recall and F1 are defined as 0.0 whenever their denominator
  is 0, and the false-alarm rate of a series with no normal points is 0.0;
  ``_ratio`` is the one place a zero denominator becomes 0.0, for scalar
  and array rates alike,
* ``_check_range`` is the one check of a real number against bounds, in
  the library and the CLI alike, and ``_check_count`` its twin for a whole
  number (of points, alarms, hits or trials); NaN lies outside every range.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields
from types import MappingProxyType
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
    """Validate a 0/1 sequence and return it as a read-only 1-D int8 copy.

    Raises ValueError on any value other than 0 or 1; nothing is rounded
    or clipped on the way in.
    """
    arr = np.asarray(flags)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"flags must be numeric 0/1, got dtype {arr.dtype}")
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"flags must be exactly 0 or 1; index {first} holds {arr[first]!r}"
        )
    return _read_only(arr, np.int8)


def _read_only(values, dtype=None, order="C") -> np.ndarray:
    """A read-only copy of values in the given memory order: the one way a
    value takes an array, so that it shares none with its caller."""
    arr = np.array(values, dtype=dtype, order=order)
    arr.setflags(write=False)
    return arr


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


class _Value:
    """Base of every value that keeps read-only arrays, a frozen dataclass
    with eq=False. It pickles and copies through its constructor (a mapping
    proxy, which does not pickle, as its dict) and equals a value of its type
    whose init fields are equal, arrays by np.array_equal; it has no hash."""

    def _args(self) -> tuple:
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)

    def __reduce__(self):
        return type(self), self._args()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_same, self._args(), other._args()))


def _same(a, b) -> bool:
    """a == b, but arrays compare by np.array_equal, also in a dict."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@dataclass(frozen=True, eq=False)
class _BinarySeries(_Value):
    """Immutable 0/1 series. Its runs of 1s and its count of 1s are found
    once, when it is built: ``starts`` holds the first index of each run,
    ascending, ``ends`` the last, inclusive (both read-only int64), and
    ``n_positive`` the number of 1s."""

    values: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    n_positive: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = as_binary_array(self.values)
        if arr.size == 0:
            raise ValueError("series must hold at least one point")
        starts, ends = map(_read_only, _run_bounds(arr))
        n_positive = int(np.count_nonzero(arr))
        for f, value in zip(fields(self), (arr, starts, ends, n_positive)):
            object.__setattr__(self, f.name, value)

    def __len__(self) -> int:
        return int(self.values.size)

    n_points = property(__len__)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
            _check_count(name, getattr(self, name), 0)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def require_same_length(labels: LabelSeries, preds) -> None:
    """Raise ValueError unless labels and the series scored or compared
    against them (predictions, scores or other labels) have equal length."""
    if len(labels) != len(preds):
        raise ValueError(
            f"length mismatch: {len(labels)} labels vs {len(preds)} values"
        )


def point_confusion(
    labels: LabelSeries, preds: PredictionSeries
) -> ConfusionCounts:
    """Count point-level TP/FP/FN/TN; series lengths must match."""
    require_same_length(labels, preds)
    tp = int(np.count_nonzero(labels.values & preds.values))
    fp = preds.n_positive - tp
    fn = labels.n_positive - tp
    tn = len(labels) - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _check_range(name: str, value, low, high=math.inf, ends="[]") -> None:
    """Reject a value outside the interval from low to high, each end
    closed ("[", "]") or open ("(", ")") as ends says; NaN lies outside
    every interval. With no high the message reads "must be >= low" (or
    "> low"), plus "and finite" if ends leaves out infinity. A value
    that is no real number (a str, None, a bool) is refused first."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below):
        if high == math.inf:
            want = f"be {'>=' if ends[0] == '[' else '>'} {low}"
            want += " and finite" if ends[1] == ")" else ""
        else:
            want = f"lie in {ends[0]}{low}, {high}{ends[1]}"
        raise ValueError(f"{name} must {want}, got {value}")


def _check_count(name: str, value, low: int, high=math.inf) -> None:
    """Refuse a value that is no integer, then one outside [low, high]: a
    count of points, alarms or hits must be a whole number."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _check_range(name, value, low, high)


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer. Bools are not: JSON's
    true and false would otherwise pass for 1 and 0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _ratio(num, den):
    """num / den, 0.0 wherever den is 0: a float for scalars, else an
    array of the broadcast shape, by the same float64 division (np.divide
    casts the counts to float64 inside its loop, copying none)."""
    shape = np.broadcast(num, den).shape
    out = np.divide(
        num, den, out=np.zeros(shape), where=den > 0, dtype=np.float64
    )
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
    _warn_no_normal(normal)
    return _ratio(counts.fp, normal)


def _warn_no_normal(n_normal: int, scored=True) -> None:
    """If anything was scored over no normal points, warn that the FAR
    reads 0.0, at the first line outside the module that calls this: a
    public call that scores through another still points at its caller."""
    if scored and not n_normal:
        module, level = sys._getframe(1).f_code.co_filename, 2
        while sys._getframe(level - 1).f_code.co_filename == module:
            level += 1
        warnings.warn(FAR_NO_NORMAL_WARNING, stacklevel=level)
