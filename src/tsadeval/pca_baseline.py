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
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from tsadeval.data_io import MvtsFrame
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.protocols import Protocol, ProtocolReport, _rates, score

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
        for name in ("center", "spread", "clip_low", "clip_high", "mean"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] != self.center.size:
            raise ValueError(
                f"basis shape {basis.shape} incompatible with "
                f"{self.center.size} channels"
            )
        if not 1 <= basis.shape[1] <= basis.shape[0]:
            raise ValueError("component count outside [1, n_channels]")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-8):
            raise ValueError("basis columns must be orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be >= 1")
        sizes = {
            arr.size
            for arr in (
                self.center,
                self.spread,
                self.clip_low,
                self.clip_high,
                self.mean,
            )
        }
        if sizes != {self.center.size}:
            raise ValueError("per-channel arrays disagree on channel count")

    @property
    def n_channels(self) -> int:
        return int(self.center.size)

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[1])

    def save(self, path: Union[str, Path, BinaryIO]) -> None:
        """Persist to .npz (a path or a binary file); float64 arrays
        round-trip bit-exactly."""
        np.savez(
            path,
            format=np.array(_FORMAT_TAG),
            center=self.center,
            spread=self.spread,
            clip_low=self.clip_low,
            clip_high=self.clip_high,
            mean=self.mean,
            basis=self.basis,
            smooth_window=np.array(self.smooth_window, dtype=np.int64),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScoredModel":
        with np.load(path) as bundle:
            tag = str(bundle["format"])
            if tag != _FORMAT_TAG:
                raise ValueError(f"{path}: unknown model format {tag!r}")
            return cls(
                center=bundle["center"],
                spread=bundle["spread"],
                clip_low=bundle["clip_low"],
                clip_high=bundle["clip_high"],
                mean=bundle["mean"],
                basis=bundle["basis"],
                smooth_window=int(bundle["smooth_window"]),
            )


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


def _sweep_f1(
    scores: np.ndarray, labels: LabelSeries, protocol: Protocol
) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, f1): every distinct score plus +inf, from high to low,
    and the F1 that score() gives the predictions at each threshold.

    The prediction at threshold t is on where score >= t, so every count a
    protocol needs is "how many precomputed values are >= t". Each value is
    a score, a minimum or a maximum of scores, so it is replaced by its
    rank among the distinct scores; a count is then a cumulative sum of a
    bincount, O(T) after the one sort inside np.unique. F1 comes from the
    counts through protocols._rates, the function score() uses, so the two
    are bit-identical.
    """
    distinct, rank = np.unique(scores, return_inverse=True)
    thresholds = np.concatenate(([np.inf], distinct[::-1]))

    def at_or_above(ranks: np.ndarray, weights=None) -> np.ndarray:
        # summed weight (or number) of the ranks at or above each threshold
        counts = np.bincount(ranks, weights, minlength=distinct.size)
        return np.concatenate(([0], np.cumsum(counts[::-1])))

    anomalous = labels.values.astype(bool)
    tp = at_or_above(rank[anomalous])
    fp = at_or_above(rank[~anomalous])
    fn = labels.n_anomalous - tp
    if protocol is Protocol.POINT_WISE:
        return thresholds, _rates(protocol, tp, fp, fn)[2]

    # an event is detected once the threshold falls to its peak score; the
    # appended 0 keeps the index one past an event at the series end valid
    starts, ends = labels.starts, labels.ends
    bounds = np.column_stack((starts, ends + 1)).ravel()
    peak = np.maximum.reduceat(np.append(rank, 0), bounds)[::2]
    if protocol is Protocol.POINT_ADJUST:
        # a detected event counts its whole length
        adjusted_tp = at_or_above(peak, ends - starts + 1)
        return thresholds, _rates(
            protocol, tp, fp, fn, adjusted_tp=adjusted_tp
        )[2]
    tp_e = at_or_above(peak)
    fn_e = starts.size - tp_e
    if protocol is Protocol.COMPOSITE:
        return thresholds, _rates(protocol, tp, fp, fn, tp_e=tp_e, fn_e=fn_e)[2]

    # event-wise fp_e counts the on-runs made only of normal points. Runs of
    # on normal points are on normal points less on normal-normal pairs;
    # each on normal/event pair joins such a run to an event, and a normal
    # gap that is on from one event's last point to the next event's first
    # is joined twice, so it is added back once. A pair is on at the
    # smaller of its two ranks.
    pair = np.minimum(rank[:-1], rank[1:])
    left, right = anomalous[:-1], anomalous[1:]
    gap = np.column_stack((ends[:-1] + 1, starts[1:])).ravel()
    bridge = np.minimum(
        np.minimum.reduceat(rank, gap)[::2],
        np.minimum(rank[ends[:-1]], rank[starts[1:]]),
    )
    fp_e = (
        fp
        - at_or_above(pair[~left & ~right])
        - at_or_above(pair[left != right])
        + at_or_above(bridge)
    )
    # the FAR by hand: false_alarm_rate takes one series' counts and warns
    # on no normal points, which score() at the winning threshold does once
    n_normal = labels.n_normal
    far = fp / n_normal if n_normal else np.zeros(thresholds.size)
    return thresholds, _rates(
        protocol, tp, fp, fn, far, tp_e=tp_e, fp_e=fp_e, fn_e=fn_e
    )[2]


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
