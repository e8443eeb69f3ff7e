"""The four scoring protocols over one (labels, predictions) pair.

* point-wise: plain point-level precision/recall/F1.
* point-adjust: any hit inside a true event first marks the whole event as
  detected, then point-wise rates are computed on the adjusted series. Kept
  because it is widespread, flagged as deprecated because a skill-free
  random predictor can saturate it (see tsadeval.adversary).
* composite: event-level recall paired with unadjusted point-level
  precision.
* event-wise: event-level recall paired with an event-level precision that
  is discounted by the point-level false-alarm rate.

All scorers return a ProtocolReport with the same shape so reports can be
tabulated uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from tsadeval.metrics import (
    LabelSeries,
    PredictionSeries,
    _ratio,
    false_alarm_rate,
    harmonic_f1,
    point_confusion,
    prf_from_counts,
    require_same_length,
)

__all__ = [
    "Protocol",
    "DEPRECATED_PROTOCOLS",
    "ProtocolReport",
    "point_adjust",
    "score_point_wise",
    "score_point_adjust",
    "score_composite",
    "score_event_wise",
    "score",
    "score_all",
]


class Protocol(str, Enum):
    """Scoring protocol identifiers; values double as CLI/CSV spellings."""

    POINT_WISE = "point-wise"
    POINT_ADJUST = "point-adjust"
    COMPOSITE = "composite"
    EVENT_WISE = "event-wise"


# Protocols that are implemented for comparability but should not be used
# to rank detectors. Their report rows carry deprecated_protocol=True.
DEPRECATED_PROTOCOLS = frozenset({Protocol.POINT_ADJUST})


@dataclass(frozen=True)
class ProtocolReport:
    """Scores of one protocol, plus event counts where the protocol has them.

    tp_e/fn_e are populated for the event-aware protocols (composite and
    event-wise); fp_e only for event-wise, whose precision is defined over
    predicted segments. far is the point-level false-alarm rate of the
    predictions as scored (for point-adjust, of the adjusted series, which
    equals the raw one since adjustment never adds false positives).
    """

    protocol: Protocol
    precision: float
    recall: float
    f1: float
    far: float
    tp_e: Optional[int] = None
    fp_e: Optional[int] = None
    fn_e: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1", "far"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if abs(self.f1 - harmonic_f1(self.precision, self.recall)) > 1e-12:
            raise ValueError("f1 inconsistent with precision/recall")

    @property
    def deprecated(self) -> bool:
        return self.protocol in DEPRECATED_PROTOCOLS


def _overlap_counts(
    starts: np.ndarray,
    ends: np.ndarray,
    other_starts: np.ndarray,
    other_ends: np.ndarray,
) -> np.ndarray:
    """For each run (starts, ends), how many other runs share a point with it.

    Both run sets are sorted and disjoint. Of the other runs starting at or
    before a run's end, those ending before its start are exactly the ones
    that miss it.
    """
    return np.searchsorted(other_starts, ends, side="right") - np.searchsorted(
        other_ends, starts
    )


def _detected_events(labels: LabelSeries, preds: PredictionSeries) -> np.ndarray:
    """Per true event, whether at least one of its points is predicted."""
    return (
        _overlap_counts(labels.starts, labels.ends, preds.starts, preds.ends) > 0
    )


def point_adjust(
    labels: LabelSeries, preds: PredictionSeries
) -> PredictionSeries:
    """Expand predictions to cover every true event they touch.

    For each ground-truth event with at least one predicted-positive point,
    all points of that event are marked positive. Points outside true
    events are untouched, so the operation is idempotent and never
    increases the false-positive count.
    """
    require_same_length(labels, preds)
    starts, ends = labels.starts, labels.ends
    # the series alternates normal stretches and events: repeat False over
    # each stretch and the event's detected flag over each event
    inner = np.column_stack((starts, ends + 1)).ravel()
    lengths = np.diff(np.concatenate(([0], inner, [len(labels)])))
    flags = np.zeros(lengths.size, dtype=bool)
    flags[1::2] = _detected_events(labels, preds)
    return PredictionSeries(preds.values | np.repeat(flags, lengths))


def _event_counts(
    labels: LabelSeries, preds: PredictionSeries
) -> tuple[int, int, int]:
    """(tp_e, fp_e, fn_e): events detected, predicted segments touching no
    anomalous point, events missed."""
    events = (labels.starts, labels.ends)
    segments = (preds.starts, preds.ends)
    tp_e = int(np.count_nonzero(_overlap_counts(*events, *segments)))
    true_segments = int(np.count_nonzero(_overlap_counts(*segments, *events)))
    return tp_e, preds.starts.size - true_segments, labels.n_events - tp_e


def _rates(
    protocol: Protocol, tp, fp, fn,
    n_normal=None, adjusted_tp=None, tp_e=None, fp_e=None, fn_e=None,
):
    """(precision, recall, f1) of one protocol: the one place each
    protocol's formula lives.

    tp/fp/fn are the raw point counts. Point-adjust also reads adjusted_tp,
    the detected events' summed length; composite reads tp_e/fn_e; and
    event-wise reads tp_e/fp_e/fn_e and n_normal, the number of normal
    points, for its false-alarm rate. Scalars give floats; arrays of
    counts, one per threshold, give arrays by the same operations, so
    score() and the threshold sweep agree bit for bit.
    """
    if protocol is Protocol.POINT_WISE:
        return prf_from_counts(tp, fp, fn)
    if protocol is Protocol.POINT_ADJUST:
        # adjustment turns each detected event fully positive, nothing else
        return prf_from_counts(adjusted_tp, fp, tp + fn - adjusted_tp)
    if protocol is Protocol.COMPOSITE:
        precision, recall = _ratio(tp, tp + fp), _ratio(tp_e, tp_e + fn_e)
    else:
        # the FAR factor makes the all-positive prediction score 0 whenever
        # any normal point exists, a degenerate case the segment counts
        # alone would reward
        base, recall, _ = prf_from_counts(tp_e, fp_e, fn_e)
        precision = base * (1.0 - _ratio(fp, n_normal))
    return precision, recall, harmonic_f1(precision, recall)


def score(
    labels: LabelSeries, preds: PredictionSeries, protocol: Protocol
) -> ProtocolReport:
    """Score one pair under one protocol.

    The point-adjusted series is never built; event-wise fp_e counts the
    predicted segments that touch no anomalous point.
    """
    protocol = Protocol(protocol)
    counts = point_confusion(labels, preds)
    adjusted_tp = tp_e = fp_e = fn_e = None
    if protocol is Protocol.POINT_ADJUST:
        detected = _detected_events(labels, preds)
        adjusted_tp = int((labels.ends - labels.starts + 1)[detected].sum())
    elif protocol is not Protocol.POINT_WISE:
        tp_e, fp_e, fn_e = _event_counts(labels, preds)
    precision, recall, f1 = _rates(
        protocol, counts.tp, counts.fp, counts.fn, counts.fp + counts.tn,
        adjusted_tp, tp_e, fp_e, fn_e,
    )
    return ProtocolReport(
        protocol=protocol,
        precision=precision,
        recall=recall,
        f1=f1,
        far=false_alarm_rate(counts),
        tp_e=tp_e,
        # composite's precision is point-level, so it reports no fp_e
        fp_e=fp_e if protocol is Protocol.EVENT_WISE else None,
        fn_e=fn_e,
    )


def score_point_wise(
    labels: LabelSeries, preds: PredictionSeries
) -> ProtocolReport:
    """Plain point-level precision/recall/F1 plus the false-alarm rate."""
    return score(labels, preds, Protocol.POINT_WISE)


def score_point_adjust(
    labels: LabelSeries, preds: PredictionSeries
) -> ProtocolReport:
    """Point-wise rates computed after the point-adjust expansion."""
    return score(labels, preds, Protocol.POINT_ADJUST)


def score_composite(
    labels: LabelSeries, preds: PredictionSeries
) -> ProtocolReport:
    """Event-level recall harmonically paired with point-level precision."""
    return score(labels, preds, Protocol.COMPOSITE)


def score_event_wise(
    labels: LabelSeries, preds: PredictionSeries
) -> ProtocolReport:
    """Event-level recall and FAR-discounted event-level precision."""
    return score(labels, preds, Protocol.EVENT_WISE)


def score_all(
    labels: LabelSeries,
    preds: PredictionSeries,
    protocols: tuple[Protocol, ...] = tuple(Protocol),
) -> list[ProtocolReport]:
    """Score one pair under several protocols, in the order given."""
    return [score(labels, preds, p) for p in protocols]

