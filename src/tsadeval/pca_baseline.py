"""PCA reconstruction-error baseline detector.

A deliberately simple, training-free-in-spirit detector: fit a linear
subspace to (robustly scaled, clipped) normal training data, score test
points by their squared reconstruction error outside that subspace, smooth
the score causally, and pick a threshold by sweeping (tsadeval.protocols
does, for any detector's scores). Despite its age this kind of baseline is
competitive with much heavier models under honest evaluation protocols,
which is exactly why it is bundled with the scorers.

Pipeline order is fixed and reproduced exactly at scoring time:
median/IQR scaling -> quantile clipping -> centering -> projection onto
the leading principal subspace -> squared residual norm -> trailing moving
average.
"""

from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from tsadeval.data_io import MvtsFrame
from tsadeval.metrics import _Value, _check_count, _check_range, _read_only
# re-exports; score goes unused here, but perfbench/tracer.py binds it
from tsadeval.protocols import predictions_at_threshold, score, sweep_threshold

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
        _check_range("variance_target", self.variance_target, 0, 1, "(]")
        lo, hi = self.clip_quantiles
        _check_range("clip_quantiles[0]", lo, 0, 1, "[)")
        _check_range("clip_quantiles[1]", hi, lo, 1, "(]")
        _check_count("smooth_window", self.smooth_window, 1)


@dataclass(frozen=True, eq=False)
class ScoredModel(_Value):
    """Everything needed to score new data exactly as at fit time.

    center/spread are the per-channel median and IQR of the training data;
    clip_low/clip_high are quantiles of the scaled training data; mean is
    the mean of the scaled-and-clipped training data; basis holds the
    leading eigenvectors of its covariance, one column per component.
    A NaN or infinity in any array, a spread <= 0 and crossed clip bounds
    are refused: fit makes none of them, and scoring would not notice.
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
        # row per channel; basis alone is 2-D, one column per component, and
        # keeps its memory order, which save writes into the archive
        *arrays, _ = fields(self)
        for f in arrays:
            arr = _read_only(getattr(self, f.name), np.float64, order="K")
            ndim = 2 if f.name == "basis" else 1
            if arr.ndim != ndim:
                raise ValueError(f"{f.name} must be {ndim}-D")
            if not np.isfinite(arr).all():
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, arr)
        if {len(getattr(self, f.name)) for f in arrays} != {self.n_channels}:
            raise ValueError("per-channel arrays disagree on channel count")
        _check_count("n_components", self.n_components, 1, self.n_channels)
        _check_range("smallest spread", self.spread.min(), 0, ends="(]")
        # np.clip would return clip_high wherever the bounds cross
        gap = self.clip_high - self.clip_low
        _check_range("smallest clip_high - clip_low", gap.min(), 0)
        gram = self.basis.T @ self.basis
        if not np.allclose(gram, np.eye(self.n_components), atol=1e-8):
            raise ValueError("basis columns must be orthonormal")
        _check_count("smooth_window", self.smooth_window, 1)

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
        # the file is opened here, as np.load leaves its own file open
        # when zipfile refuses a damaged archive
        with open(path, "rb") as fh:
            try:
                bundle = np.load(fh)
            except (ValueError, EOFError, zipfile.BadZipFile):
                # numpy reads a file that is no .npy or .npz as a pickle,
                # and finds nothing to read in an empty one
                bundle = None
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                # an .npy holds one bare array
                raise ValueError(f"{path}: not a model archive (.npz)")
            with bundle:
                names = [f.name for f in fields(cls)]
                missing = sorted({"format", *names} - set(bundle.files))
                tag = None if "format" in missing else str(bundle["format"])
                if tag not in (None, _FORMAT_TAG):
                    raise ValueError(f"{path}: unknown model format {tag!r}")
                if missing:
                    raise ValueError(f"{path}: missing keys {missing}")
                arrays = {name: bundle[name] for name in names}
        arrays["smooth_window"] = arrays["smooth_window"].item()
        return cls(**arrays)


@dataclass(frozen=True, eq=False)
class AnomalyScoreSeries(_Value):
    """Non-negative per-point anomaly scores (higher = more anomalous)."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = _read_only(self.scores, np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("scores must be finite")
        _check_range("smallest score", arr.min(), 0)
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.size)


def fit(train: MvtsFrame, config: Optional[PcaConfig] = None) -> ScoredModel:
    """Fit the baseline on (assumed normal) training data.

    Channels whose IQR is zero are scaled by 1 instead (with a warning);
    they carry no spread for the quantiles to work with but still
    contribute their residual. Component count is the smallest k whose
    eigenvalues cover config.variance_target of the total variance.

    Scaling and clipping run in one frame-sized buffer, so beside the
    frame fit holds at most two frame-sized arrays at once: that buffer
    and the copy that np.median, np.quantile or np.cov sorts or centres.
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
    scaled = x - center
    scaled /= spread
    lo, hi = config.clip_quantiles
    clip_low, clip_high = np.quantile(scaled, [lo, hi], axis=0)
    np.clip(scaled, clip_low, clip_high, out=scaled)
    mean = scaled.mean(axis=0)
    cov = np.atleast_2d(np.cov(scaled, rowvar=False))
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
    kernel = np.full(window, 1.0 / window)
    return np.convolve(raw, kernel, mode="full")[: raw.size]


def score_frame(model: ScoredModel, frame: MvtsFrame) -> AnomalyScoreSeries:
    """Squared reconstruction error per point, causally smoothed.

    Scaling, clipping, centring and the residual run in one frame-sized
    buffer, so beside the frame score_frame holds at most two frame-sized
    arrays at once: that buffer and the reconstruction subtracted from it,
    with the rows x k projection the reconstruction is built from.
    """
    if frame.n_channels != model.n_channels:
        raise ValueError(
            f"frame has {frame.n_channels} channels, model expects "
            f"{model.n_channels}"
        )
    residual = frame.values - model.center
    residual /= model.spread
    np.clip(residual, model.clip_low, model.clip_high, out=residual)
    residual -= model.mean
    residual -= (residual @ model.basis) @ model.basis.T
    raw = np.einsum("ij,ij->i", residual, residual)
    return AnomalyScoreSeries(_smooth_trailing(raw, model.smooth_window))

