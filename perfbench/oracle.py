"""Independent best point-wise F1: one sort plus cumulative sums.

It shares no code with tsadeval. Predictions at threshold ``t`` are
``scores >= t``; the candidates are every distinct score plus infinity
(nothing flagged), the same set the program's sweep considers. F1 is
written as 2 tp / (flagged + positives), which equals the harmonic mean of
precision and recall and is 0 when there are no true positives.
"""

from __future__ import annotations

import numpy as np


def best_point_wise_f1(scores: np.ndarray, labels: np.ndarray) -> float:
    """Largest point-wise F1 over all thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) != 0
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(positive[order])
    flagged = np.arange(1, ranked.size + 1)
    # a threshold flags every point tied with it, so keep tie-group ends only
    group_end = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    f1 = 2.0 * tp[group_end] / (flagged[group_end] + int(positive.sum()))
    return max(0.0, float(f1.max()))


def point_wise_f1_at(
    scores: np.ndarray, labels: np.ndarray, threshold: float
) -> float:
    """Point-wise F1 of the predictions ``scores >= threshold``."""
    flagged = np.asarray(scores, dtype=np.float64) >= threshold
    positive = np.asarray(labels) != 0
    tp = int(np.count_nonzero(flagged & positive))
    if tp == 0:
        return 0.0
    return 2.0 * tp / (int(flagged.sum()) + int(positive.sum()))


def _ratio(numerator, denominator) -> np.ndarray:
    """numerator / denominator, and 0 where the denominator is 0."""
    numerator, denominator = np.broadcast_arrays(
        np.asarray(numerator, dtype=np.float64), denominator
    )
    return np.divide(
        numerator, denominator,
        out=np.zeros(numerator.shape), where=denominator != 0,
    )


def _harmonic(precision: np.ndarray, recall: np.ndarray) -> np.ndarray:
    return _ratio(2.0 * precision * recall, precision + recall)


def attack_f1(
    starts: np.ndarray, ends: np.ndarray, total: int, alarms: np.ndarray
) -> dict:
    """Per-trial F1 of each protocol, from alarm positions alone.

    ``starts`` and ``ends`` are the sorted, inclusive bounds of the true
    events in a series of ``total`` points. Row ``i`` of ``alarms`` holds
    the distinct flagged positions of trial ``i``. The work is O(alpha) per
    trial: events are found by binary search, and predicted segments are
    runs of consecutive alarm positions.
    """
    starts, ends = np.asarray(starts), np.asarray(ends)
    alarms = np.sort(np.asarray(alarms), axis=1)
    n_trials, alpha = alarms.shape
    lengths = ends - starts + 1
    n_events, anomalous = starts.size, int(lengths.sum())
    event = np.searchsorted(starts, alarms, side="right") - 1
    # event -1 (before the first event) reads the sentinel end -1
    inside = alarms <= np.append(ends, -1)[event]
    trial = np.broadcast_to(np.arange(n_trials)[:, None], alarms.shape)
    hit = np.zeros((n_trials, n_events), dtype=bool)
    hit[trial[inside], event[inside]] = True
    hits = inside.sum(axis=1)
    detected = hit.sum(axis=1)
    adjusted = hit @ lengths
    false_alarms = alpha - hits
    new_segment = np.ones(alarms.shape, dtype=bool)
    new_segment[:, 1:] = np.diff(alarms, axis=1) != 1
    segment = np.cumsum(new_segment, axis=1) - 1
    touched = np.zeros(alarms.shape, dtype=bool)
    touched[trial[inside], segment[inside]] = True
    false_segments = new_segment.sum(axis=1) - touched.sum(axis=1)

    point_precision = _ratio(hits, alpha)
    event_recall = _ratio(detected, n_events)
    far = _ratio(false_alarms, total - anomalous)
    event_precision = _ratio(detected, detected + false_segments) * (1.0 - far)
    return {
        "point-wise": _harmonic(point_precision, _ratio(hits, anomalous)),
        "point-adjust": _harmonic(
            _ratio(adjusted, adjusted + false_alarms),
            _ratio(adjusted, anomalous),
        ),
        "composite": _harmonic(point_precision, event_recall),
        "event-wise": _harmonic(event_precision, event_recall),
        "hits": hits,
    }


def prob_zero_hits(total: int, anomalous: int, alpha: int) -> float:
    """Chance that alpha distinct uniform alarms all miss every event."""
    if alpha > total - anomalous:
        return 0.0
    i = np.arange(alpha)
    return float(np.exp(np.log1p(-anomalous / (total - i)).sum()))
