"""Expected point-wise F1 as a function of false-alarm rate and class balance.

Models an idealized detector by its recall and false-alarm rate and asks
what point-wise F1 it earns on datasets of different contamination. Counts
are expected values (tp = recall * n_anomalous, fp = far * n_normal) and
deliberately fractional: the study is about the metric's shape, not about
integer realizations. The punchline is that the same detector's F1 varies
wildly with contamination alone, so F1 values quoted across datasets are
not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tsadeval.metrics import prf_from_counts

__all__ = [
    "DetectorSpec",
    "DatasetShape",
    "expected_counts",
    "expected_f1",
    "default_far_grid",
    "f1_far_table",
]


@dataclass(frozen=True)
class DetectorSpec:
    """An idealized detector summarized by recall and false-alarm rate."""

    recall: float
    far: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.recall <= 1.0:
            raise ValueError(f"recall {self.recall} outside [0, 1]")
        if not 0.0 <= self.far <= 1.0:
            raise ValueError(f"far {self.far} outside [0, 1]")


@dataclass(frozen=True)
class DatasetShape:
    """Class balance of a hypothetical dataset."""

    n_normal: int
    n_anomalous: int

    def __post_init__(self) -> None:
        if self.n_normal < 0 or self.n_anomalous < 0:
            raise ValueError("counts must be non-negative")
        if self.n_normal + self.n_anomalous == 0:
            raise ValueError("dataset must hold at least one point")

    @property
    def contamination_rate(self) -> float:
        return self.n_anomalous / (self.n_normal + self.n_anomalous)


def expected_counts(
    detector: DetectorSpec, shape: DatasetShape
) -> tuple[float, float, float]:
    """(tp, fp, fn) in expectation; fractional values are intentional."""
    tp = detector.recall * shape.n_anomalous
    fp = detector.far * shape.n_normal
    fn = shape.n_anomalous - tp
    return tp, fp, fn


def expected_f1(
    detector: DetectorSpec, shape: DatasetShape
) -> tuple[float, float, float]:
    """(precision, recall, f1) of the idealized detector on the shape.

    A shape with no anomalous points yields (0, 0, 0) under the
    zero-denominator convention.
    """
    return prf_from_counts(*expected_counts(detector, shape))


def default_far_grid(
    low: float = 0.001, high: float = 0.2, points: int = 50
) -> np.ndarray:
    """Logarithmic false-alarm-rate grid used by the study."""
    if not 0.0 < low < high <= 1.0:
        raise ValueError("need 0 < low < high <= 1")
    if points < 2:
        raise ValueError("points must be >= 2")
    return np.logspace(np.log10(low), np.log10(high), points)


def f1_far_table(
    recall: float,
    far_grid: np.ndarray,
    shapes: "list[DatasetShape] | tuple[DatasetShape, ...]",
) -> np.ndarray:
    """Expected F1 over the grid, one column per dataset shape.

    For any fixed far > 0 and recall > 0, F1 is strictly increasing in
    contamination: more anomalous mass means the same false-alarm rate
    buys proportionally fewer false positives per true positive.
    """
    DetectorSpec(recall=recall, far=0.0)  # rejects a recall outside [0, 1]
    far = np.asarray(far_grid, dtype=float)[:, None]
    outside = ~((0.0 <= far) & (far <= 1.0))
    if outside.any():
        raise ValueError(f"far {far[outside][0]} outside [0, 1]")
    n_normal = np.array([[s.n_normal for s in shapes]], dtype=float)
    n_anomalous = np.array([[s.n_anomalous for s in shapes]], dtype=float)
    # expected_counts over the whole (far, shape) grid at once
    tp = recall * n_anomalous
    return prf_from_counts(tp, far * n_normal, n_anomalous - tp)[2]
