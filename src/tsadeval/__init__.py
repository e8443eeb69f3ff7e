"""Evaluation protocols for time-series anomaly detection.

Point-wise, point-adjust, composite and event-wise scoring over binary
label/prediction series, plus the analytical and Monte Carlo machinery
showing how easily point-adjust scoring is gamed by an unskilled random
predictor, an expected-count F1-vs-false-alarm-rate study, a synthetic
multivariate data generator, and a PCA reconstruction-error baseline.
"""

from tsadeval.metrics import (
    ConfusionCounts,
    LabelSeries,
    PredictionSeries,
    Segment,
    false_alarm_rate,
    point_confusion,
    precision_recall_f1,
    segmentize,
)
from tsadeval.protocols import (
    Protocol,
    ProtocolReport,
    point_adjust,
    score,
    score_all,
    score_composite,
    score_event_wise,
    score_point_adjust,
    score_point_wise,
)

__version__ = "0.2.0"

__all__ = [
    "ConfusionCounts",
    "LabelSeries",
    "PredictionSeries",
    "Protocol",
    "ProtocolReport",
    "Segment",
    "false_alarm_rate",
    "point_adjust",
    "point_confusion",
    "precision_recall_f1",
    "score",
    "score_all",
    "score_composite",
    "score_event_wise",
    "score_point_adjust",
    "score_point_wise",
    "segmentize",
    "__version__",
]
