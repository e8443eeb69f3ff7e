"""The four scoring protocols, and every count they read.

* point-wise: plain point-level precision/recall/F1.
* point-adjust: any hit inside a true event first marks the whole event as
  detected, then point-wise rates are computed on the adjusted series. Kept
  because it is widespread, flagged as deprecated because a skill-free
  random predictor can saturate it (see tsadeval.adversary).
* composite: event-level recall paired with unadjusted point-level
  precision.
* event-wise: event-level recall paired with an event-level precision that
  is discounted by the point-level false-alarm rate.

score and score_all return ProtocolReports of one shape, so reports can
be tabulated uniformly. Both count the prediction once, into one record of
five counts (_prediction_counts), however many protocols score_all is
given. Every public scorer ends in _reports, which builds each report
from one record and the labels, and which alone warns, once, of labels
with no normal points, at the first line outside this module.

This module is the one place that turns a detector's output into protocol
counts, whatever form the output takes: a prediction (_prediction_counts),
scores ranked at every candidate threshold (_sweep_counts) or rows of
sorted alarm positions, one per random-flag trial (_block_counts). Each
gives _rates the same five counts, those the output decides, and _rates
alone picks the counts a protocol reads and takes its denominators, the
totals of anomalous points, events and normal points, from the labels.
Picking a threshold is part of evaluation, so the module also picks one
from the sweep's counts (sweep_threshold) and binarizes any detector's
scores at it (predictions_at_threshold). evaluate is the one call from a
detector's output to reports: it counts a prediction, or scores at a
given threshold, once (_prediction_counts), and scores with no threshold
once by the sweep, whose counts at the best point-wise threshold make
the reports.
Arrays of counts, one per threshold or trial, go through the same
operations as score()'s scalars, so the sweep's and the trial engine's
F1 equal score() on the corresponding prediction bit for bit; the tests
hold both to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from tsadeval.metrics import (
    LabelSeries,
    PredictionSeries,
    _check_range,
    _ratio,
    _warn_no_normal,
    harmonic_f1,
    point_confusion,
    prf_from_counts,
    require_same_length,
)

if TYPE_CHECKING:
    from tsadeval.pca_baseline import AnomalyScoreSeries

__all__ = [
    "Protocol",
    "DEPRECATED_PROTOCOLS",
    "ProtocolReport",
    "evaluate",
    "point_adjust",
    "predictions_at_threshold",
    "score",
    "score_all",
    "sweep_threshold",
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
            _check_range(name, getattr(self, name), 0, 1)
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


def _rates(
    protocol: Protocol, labels: LabelSeries, *, tp, fp, adjusted_tp, tp_e, fp_e
):
    """(precision, recall, f1) of one protocol: the one place that picks
    the counts a protocol reads and applies its formula.

    tp/fp are the raw point counts; point-adjust reads adjusted_tp, the
    detected events' summed length, for tp; composite and event-wise read
    tp_e, and event-wise also fp_e and its false-alarm rate. Denominators
    that are totals of anomalous points, events or normal points come from
    the labels. Scalars give floats; arrays of counts give arrays.
    """
    if protocol is Protocol.POINT_WISE:
        return prf_from_counts(tp, fp, labels.n_anomalous - tp)
    if protocol is Protocol.POINT_ADJUST:
        # adjustment turns each detected event fully positive, nothing else
        return prf_from_counts(
            adjusted_tp, fp, labels.n_anomalous - adjusted_tp
        )
    if protocol is Protocol.COMPOSITE:
        precision = _ratio(tp, tp + fp)
    else:
        # the FAR factor makes the all-positive prediction score 0 whenever
        # any normal point exists, a degenerate case the segment counts
        # alone would reward
        base = _ratio(tp_e, tp_e + fp_e)
        precision = base * (1.0 - _ratio(fp, labels.n_normal))
    recall = _ratio(tp_e, labels.n_events)
    return precision, recall, harmonic_f1(precision, recall)


def _prediction_counts(labels: LabelSeries, preds: PredictionSeries) -> dict:
    """The five counts _rates reads, of one prediction, each a Python int.
    tp and fp come from one point_confusion; adjusted_tp is the detected
    events' summed length, so the point-adjusted series is never built;
    tp_e counts the detected events, and fp_e the predicted segments that
    touch no anomalous point."""
    counts = point_confusion(labels, preds)
    starts, ends = labels.starts, labels.ends
    detected = _detected_events(labels, preds)
    true_segments = _overlap_counts(preds.starts, preds.ends, starts, ends)
    return dict(
        tp=counts.tp,
        fp=counts.fp,
        adjusted_tp=int((ends - starts + 1)[detected].sum()),
        tp_e=int(np.count_nonzero(detected)),
        fp_e=preds.starts.size - int(np.count_nonzero(true_segments)),
    )


def _reports(labels: LabelSeries, counts: dict, protocols: tuple) -> list:
    """The reports of protocols, in order, from the labels and a record of
    the five counts, each a Python int: the one step from counts to
    reports. It warns once of labels with no normal points if it built a
    report."""
    reports = []
    for protocol in map(Protocol, protocols):
        precision, recall, f1 = _rates(protocol, labels, **counts)
        event_aware = protocol in (Protocol.COMPOSITE, Protocol.EVENT_WISE)
        report = ProtocolReport(
            protocol=protocol,
            precision=precision,
            recall=recall,
            f1=f1,
            far=_ratio(counts["fp"], labels.n_normal),
            tp_e=counts["tp_e"] if event_aware else None,
            # composite's precision is point-level, so it reports no fp_e
            fp_e=counts["fp_e"] if protocol is Protocol.EVENT_WISE else None,
            fn_e=labels.n_events - counts["tp_e"] if event_aware else None,
        )
        reports.append(report)
    _warn_no_normal(labels.n_normal, reports)
    return reports


def score(
    labels: LabelSeries, preds: PredictionSeries, protocol: Protocol
) -> ProtocolReport:
    """Score one pair under one protocol."""
    return score_all(labels, preds, (Protocol(protocol),))[0]


def score_all(
    labels: LabelSeries,
    preds: PredictionSeries,
    protocols: tuple[Protocol, ...] = tuple(Protocol),
) -> list[ProtocolReport]:
    """Score one pair under several protocols, in the order given; the
    pair is counted once, whatever the number of protocols."""
    return _reports(labels, _prediction_counts(labels, preds), protocols)


def _sweep_counts(scores: np.ndarray, labels: LabelSeries) -> tuple:
    """(thresholds, counts): every distinct score plus +inf, from high to
    low, and the five counts of the prediction at each threshold, one
    int64 array each, with an entry per threshold.

    The prediction at threshold t is on where score >= t, so every count a
    protocol needs is "how many precomputed values are >= t". Each value is
    a score, a minimum or a maximum of scores, so it is replaced by its
    rank among the distinct scores; a count is then a cumulative sum of a
    bincount, O(T) after the one sort inside np.unique. adjusted_tp is a
    cumulative sum of event lengths in descending-peak order, read at
    tp_e. Every count is an integer tally.
    """
    distinct, rank = np.unique(scores, return_inverse=True)
    thresholds = np.concatenate(([np.inf], distinct[::-1]))

    def at_or_above(ranks: np.ndarray) -> np.ndarray:
        # number of the ranks at or above each threshold
        counts = np.bincount(ranks, minlength=distinct.size)
        return np.concatenate(([0], np.cumsum(counts[::-1])))

    anomalous = labels.values.astype(bool)
    tp = at_or_above(rank[anomalous])
    fp = at_or_above(rank[~anomalous])

    # an event is detected once the threshold falls to its peak score; the
    # appended 0 keeps the index one past an event at the series end valid
    starts, ends = labels.starts, labels.ends
    bounds = np.column_stack((starts, ends + 1)).ravel()
    peak = np.maximum.reduceat(np.append(rank, 0), bounds)[::2]

    # event-wise fp_e counts the on-runs made only of normal points. Runs of
    # on normal points are on normal points less on normal-normal pairs;
    # each on normal/event pair joins such a run to an event, and a normal
    # gap that is on from one event's last point to the next event's first
    # is joined twice, so it is added back once. A pair is on at the
    # smaller of its two ranks.
    pair = np.minimum(rank[:-1], rank[1:])
    gap = np.column_stack((ends[:-1] + 1, starts[1:])).ravel()
    bridge = np.minimum(
        np.minimum.reduceat(rank, gap)[::2],
        np.minimum(rank[ends[:-1]], rank[starts[1:]]),
    )
    pairs_with_normal = pair[~(anomalous[:-1] & anomalous[1:])]
    fp_e = fp - at_or_above(pairs_with_normal) + at_or_above(bridge)
    # a detected event counts its whole length toward adjusted_tp. Events
    # with tied peaks enter together, so the events detected at a threshold
    # are the first tp_e in descending-peak order
    tp_e = at_or_above(peak)
    lengths = (ends - starts + 1)[np.argsort(peak)[::-1]]
    adjusted_tp = np.concatenate(([0], np.cumsum(lengths)))[tp_e]
    return thresholds, dict(
        tp=tp, fp=fp, adjusted_tp=adjusted_tp, tp_e=tp_e, fp_e=fp_e
    )


def predictions_at_threshold(
    scores: AnomalyScoreSeries, threshold: float
) -> PredictionSeries:
    """Binarize scores: positive where score >= threshold."""
    return PredictionSeries(scores.scores >= threshold)


def _sweep_winner(
    scores: AnomalyScoreSeries, labels: LabelSeries, protocol: Protocol
) -> tuple:
    """(threshold, counts as Python ints) where the sweep's F1 under
    protocol is best."""
    require_same_length(labels, scores)
    thresholds, counts = _sweep_counts(scores.scores, labels)
    f1 = _rates(protocol, labels, **counts)[2]
    # argmax takes the first maximum, i.e. the largest threshold
    best = int(np.argmax(f1))
    return float(thresholds[best]), {
        name: int(value[best]) for name, value in counts.items()
    }


def sweep_threshold(
    scores: AnomalyScoreSeries,
    labels: LabelSeries,
    protocol: Protocol = Protocol.POINT_WISE,
) -> tuple:
    """Threshold sweep maximizing F1 under the given protocol.

    Candidates are every distinct score plus infinity (the all-negative
    prediction), so the all-positive and all-negative extremes are always
    considered. Returns (threshold, report); ties in F1 resolve toward the
    larger threshold, i.e. the fewest positive points.

    Every candidate is still scored exactly, with event-aware protocols
    too, whose F1 is not monotone in the threshold: every protocol's
    counts at all candidates come from one sort, in O(T log T), and the
    report is built from those counts at the winning threshold, with no
    binarization and no second count. It warns once of no normal points.
    """
    protocol = Protocol(protocol)
    threshold, winner = _sweep_winner(scores, labels, protocol)
    return threshold, _reports(labels, winner, (protocol,))[0]


def evaluate(
    labels: LabelSeries,
    output,
    threshold: Optional[float] = None,
    protocols: tuple[Protocol, ...] = tuple(Protocol),
) -> tuple:
    """(threshold, reports in the order of protocols) of a detector's
    output. A PredictionSeries takes no threshold, and None comes back.
    Scores are flagged where score >= threshold or, with none, reported
    from the sweep's counts at its best point-wise threshold. Either way
    the output is counted once. It warns once of no normal points."""
    if isinstance(output, PredictionSeries):
        if threshold is not None:
            raise ValueError("a threshold applies only to scores")
        counts = _prediction_counts(labels, output)
    elif threshold is not None:
        preds = predictions_at_threshold(output, threshold)
        counts = _prediction_counts(labels, preds)
    else:
        threshold, counts = _sweep_winner(output, labels, Protocol.POINT_WISE)
    return threshold, _reports(labels, counts, protocols)


def _block_counts(labels: LabelSeries, alarms: np.ndarray) -> dict:
    """The five counts _rates reads, one int64 array each, with an entry
    per row of sorted alarms.

    Row i of `alarms` holds one trial's distinct alarm positions in
    ascending order. Two passes touch every alarm: a gather of the labels
    at the alarms marks the hits, and a diff along each row counts the
    predicted segments, the runs of consecutive positions. Everything
    else runs over the hits alone, flattened in row order, so its cost
    grows with the hits, and memory stays a few arrays of rows x alpha.

    A hit's event is the last one starting at or before it. Hits on one
    event are adjacent, so a hit whose row or event differs from the
    previous hit's marks its event detected. Along a predicted segment,
    position and flattened index rise together; a hit whose row or lag
    (position less index) differs from the previous hit's so opens a true
    segment, and the segments no hit opens are false. Each row's totals
    are integer tallies over the marked hits' row numbers: bincounts of
    them, and for adjusted_tp their events' lengths added at them.
    """
    starts, ends = labels.starts, labels.ends
    rows, alpha = alarms.shape
    inside = labels.values[alarms] != 0
    tp = np.count_nonzero(inside, axis=1)
    segments = (alpha > 0) + np.count_nonzero(
        np.diff(alarms, axis=1) != 1, axis=1
    )
    flat = np.flatnonzero(inside)
    hit = alarms.ravel()[flat]
    row = flat // max(alpha, 1)
    event = np.searchsorted(starts, hit, side="right") - 1
    lag = hit - flat
    new_row = row[1:] != row[:-1]
    first_hit = np.ones(hit.size, dtype=bool)
    first_hit[1:] = new_row | (event[1:] != event[:-1])
    opens = np.ones(hit.size, dtype=bool)
    opens[1:] = new_row | (lag[1:] != lag[:-1])
    # each row's first hits, their events' summed lengths, and true segments
    first = row[first_hit]
    lengths = (ends - starts + 1)[event[first_hit]]
    adjusted_tp = np.zeros(rows, dtype=np.int64)
    np.add.at(adjusted_tp, first, lengths)
    return {
        "tp": tp,
        "fp": alpha - tp,
        "adjusted_tp": adjusted_tp,
        "tp_e": np.bincount(first, minlength=rows),
        "fp_e": segments - np.bincount(row[opens], minlength=rows),
    }
