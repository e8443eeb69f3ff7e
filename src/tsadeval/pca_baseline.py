"""PCA reconstruction-error baseline detector.

A deliberately simple, training-free-in-spirit detector: fit a linear
subspace to (robustly scaled, clipped) normal training data, score test
points by their squared reconstruction error outside that subspace, smooth
the score causally, and pick a threshold by sweeping. Despite its age this
kind of baseline is competitive with much heavier models under honest
evaluation protocols, which is exactly why it is bundled with the scorers.

Pipeline order is fixed and reproduced exactly at scoring time:
median/IQR scaling -> quantile clipping -> centering -> projection onto
the leading principal subspace -> squared residual norm -> trailing moving
average.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from tsadeval.data_io import MvtsFrame
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.protocols import Protocol, _sweep_f1, score

__all__ = [
    "PcaConfig",
    "ScoredModel",
    "AnomalyScoreSeries",
    "fit",
    "score_frame",
    "predictions_at_threshold",
    "sweep_threshold",
]

_FORMAT_TAG = "tsadeval-pca-v1"


@dataclass(frozen=True)
class PcaConfig:
    """Fit-time knobs of the baseline.

    variance_target picks the smallest component count whose cumulative
    explained variance reaches the target. clip_quantiles bound the scaled
    training data before the covariance is estimated, so single extreme
    points cannot tilt the subspace. smooth_window is the trailing moving
    average width applied to the raw scores (1 disables smoothing).
    """

    variance_target: float = 0.9
    clip_quantiles: tuple = (0.001, 0.999)
    smooth_window: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.variance_target <= 1.0:
            raise ValueError(
                f"variance_target {self.variance_target} outside (0, 1]"
            )
        lo, hi = self.clip_quantiles
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(
                f"clip_quantiles {self.clip_quantiles} must satisfy "
                "0 <= low < high <= 1"
            )
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be >= 1")


@dataclass(frozen=True)
class ScoredModel:
    """Everything needed to score new data exactly as at fit time.

    center/spread are the per-channel median and IQR of the training data;
    clip_low/clip_high are quantiles of the scaled training data; mean is
    the mean of the scaled-and-clipped training data; basis holds the
    leading eigenvectors of its covariance, one column per component.
    """

    center: np.ndarray
    spread: np.ndarray
    clip_low: np.ndarray
    clip_high: np.ndarray
    mean: np.ndarray
    basis: np.ndarray
    smooth_window: int

    def __post_init__(self) -> None:
        # every field but the last, smooth_window, is a float array with one
        # row per channel; basis alone is 2-D, one column per component
        *arrays, _ = fields(self)
        for f in arrays:
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            ndim = 2 if f.name == "basis" else 1
            if arr.ndim != ndim:
                raise ValueError(f"{f.name} must be {ndim}-D")
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)
        if {len(getattr(self, f.name)) for f in arrays} != {self.n_channels}:
            raise ValueError("per-channel arrays disagree on channel count")
        if not 1 <= self.n_components <= self.n_channels:
            raise ValueError("component count outside [1, n_channels]")
        gram = self.basis.T @ self.basis
        if not np.allclose(gram, np.eye(self.n_components), atol=1e-8):
            raise ValueError("basis columns must be orthonormal")
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be >= 1")

    @property
    def n_channels(self) -> int:
        return int(self.center.size)

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[1])

    def save(self, path: Union[str, Path, BinaryIO]) -> None:
        """Persist to .npz (a path or a binary file); float64 arrays
        round-trip bit-exactly."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        np.savez(path, format=np.array(_FORMAT_TAG), **arrays)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScoredModel":
        with np.load(path) as bundle:
            tag = str(bundle["format"])
            if tag != _FORMAT_TAG:
                raise ValueError(f"{path}: unknown model format {tag!r}")
            arrays = {f.name: bundle[f.name] for f in fields(cls)}
        arrays["smooth_window"] = int(arrays["smooth_window"])
        return cls(**arrays)


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """Non-negative per-point anomaly scores (higher = more anomalous)."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("scores must be finite")
        if (arr < 0).any():
            raise ValueError("scores must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.size)


def fit(train: MvtsFrame, config: Optional[PcaConfig] = None) -> ScoredModel:
    """Fit the baseline on (assumed normal) training data.

    Channels whose IQR is zero are scaled by 1 instead (with a warning);
    they carry no spread for the quantiles to work with but still
    contribute their residual. Component count is the smallest k whose
    eigenvalues cover config.variance_target of the total variance.
    """
    config = config or PcaConfig()
    x = train.values
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    center = np.median(x, axis=0)
    q25, q75 = np.quantile(x, [0.25, 0.75], axis=0)
    spread = q75 - q25
    flat = spread == 0
    if flat.any():
        warnings.warn(
            f"{int(flat.sum())} channel(s) have zero IQR; scaling by 1",
            stacklevel=2,
        )
        spread = np.where(flat, 1.0, spread)
    scaled = (x - center) / spread
    lo, hi = config.clip_quantiles
    clip_low, clip_high = np.quantile(scaled, [lo, hi], axis=0)
    clipped = np.clip(scaled, clip_low, clip_high)
    mean = clipped.mean(axis=0)
    cov = np.atleast_2d(np.cov(clipped, rowvar=False))
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = float(eigvals.sum())
    if total <= 0.0:
        k = 1
    else:
        ratios = np.cumsum(eigvals) / total
        k = int(np.searchsorted(ratios, config.variance_target - 1e-12)) + 1
        k = min(max(k, 1), x.shape[1])
    return ScoredModel(
        center=center,
        spread=spread,
        clip_low=clip_low,
        clip_high=clip_high,
        mean=mean,
        basis=eigvecs[:, :k],
        smooth_window=config.smooth_window,
    )


def _smooth_trailing(raw: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with zero padding before the series start.

    Every output point averages the current and previous window-1 raw
    values divided by the full window, so the operation is causal and the
    total score mass is conserved up to the tail.
    """
    if window == 1:
        return raw
    kernel = np.full(window, 1.0 / window)
    return np.convolve(raw, kernel, mode="full")[: raw.size]


def score_frame(model: ScoredModel, frame: MvtsFrame) -> AnomalyScoreSeries:
    """Squared reconstruction error per point, causally smoothed."""
    if frame.n_channels != model.n_channels:
        raise ValueError(
            f"frame has {frame.n_channels} channels, model expects "
            f"{model.n_channels}"
        )
    scaled = (frame.values - model.center) / model.spread
    clipped = np.clip(scaled, model.clip_low, model.clip_high)
    centered = clipped - model.mean
    projected = centered @ model.basis
    residual = centered - projected @ model.basis.T
    raw = np.einsum("ij,ij->i", residual, residual)
    return AnomalyScoreSeries(_smooth_trailing(raw, model.smooth_window))


def predictions_at_threshold(
    scores: AnomalyScoreSeries, threshold: float
) -> PredictionSeries:
    """Binarize scores: positive where score >= threshold."""
    return PredictionSeries(
        (scores.scores >= threshold).astype(np.int8)
    )


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
    too, whose F1 is not monotone in the threshold: the counts at all
    candidates come from one sort, in O(T log T), and score() runs once,
    at the winning threshold, to build the report.
    """
    if len(scores) != len(labels):
        raise ValueError(
            f"length mismatch: {len(scores)} scores vs {len(labels)} labels"
        )
    protocol = Protocol(protocol)
    thresholds, f1 = _sweep_f1(scores.scores, labels, protocol)
    # argmax takes the first maximum, i.e. the largest threshold
    threshold = float(thresholds[np.argmax(f1)])
    report = score(labels, predictions_at_threshold(scores, threshold), protocol)
    return threshold, report
