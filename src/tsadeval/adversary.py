"""Random-flag stress test for the point-adjust protocol.

An adversary with no detection skill raises a fixed number of alarms at
uniformly random distinct time points. Under point-adjust scoring a single
lucky alarm inside a long event is expanded to the whole event, so the
expected score of this predictor is far from 0. This module provides the
closed forms for the single-segment case, the distribution of the
resulting F1 under two sampling models, and a Monte Carlo engine that
draws real alarm positions and scores them. The engine never builds a
prediction series: it derives each protocol's counts from the sorted alarm
positions, a block of trials at a time, and turns them into F1 with
protocols._rates, the formulas score() itself uses. The test suite
requires every trial's F1 to equal score() on that trial's prediction.

Closed forms (single anomalous segment of length A inside T points,
alpha random alarms, s of them landing inside the segment):

* P(all events recalled)      = 1 - (1 - r)^alpha, r the contamination rate
* adjusted F1 given s >= 1    = 2A / (2A + alpha - s), and 0 for s = 0
* worst non-zero adjusted F1  = 2A / (2A + alpha - 1)   (s = 1)
* worst adjusted precision    = A / (A + alpha - 1)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

# point_confusion and score go unused here; perfbench/tracer.py binds both
from tsadeval.metrics import (
    FAR_NO_NORMAL_WARNING,
    LabelSeries,
    PredictionSeries,
    point_confusion,
)
from tsadeval.protocols import Protocol, _rates, score

__all__ = [
    "AttackSetup",
    "SamplingModel",
    "F1PaDistribution",
    "WorstCaseRow",
    "single_segment_labels",
    "prob_perfect_recall",
    "f1_pa_for_hits",
    "worst_case_precision_pa",
    "worst_case_f1_pa",
    "worst_case_table",
    "hit_probabilities",
    "f1_pa_distribution",
    "run_attack",
    "monte_carlo_f1_pa",
    "random_flag_trials",
    "trial_seed",
]


def single_segment_labels(
    total_points: int, segment_length: int, start: Optional[int] = None
) -> LabelSeries:
    """Labels with one anomalous segment; centered unless start is given."""
    if not 1 <= segment_length <= total_points:
        raise ValueError(
            f"segment_length {segment_length} outside [1, {total_points}]"
        )
    if start is None:
        start = (total_points - segment_length) // 2
    if start < 0 or start + segment_length > total_points:
        raise ValueError("segment does not fit the series")
    values = np.zeros(total_points, dtype=np.int8)
    values[start : start + segment_length] = 1
    return LabelSeries(values)


@dataclass(frozen=True)
class AttackSetup:
    """One single-segment attack configuration."""

    total_points: int
    anomalous_length: int
    alpha: int

    def __post_init__(self) -> None:
        if self.total_points < 1:
            raise ValueError("total_points must be >= 1")
        if not 1 <= self.anomalous_length <= self.total_points:
            raise ValueError(
                "anomalous_length must lie in [1, total_points], got "
                f"{self.anomalous_length}"
            )
        if not 1 <= self.alpha <= self.total_points:
            raise ValueError(
                f"alpha must lie in [1, total_points], got {self.alpha}"
            )

    @property
    def contamination_rate(self) -> float:
        return self.anomalous_length / self.total_points

    def labels(self) -> LabelSeries:
        return single_segment_labels(self.total_points, self.anomalous_length)


def prob_perfect_recall(contamination_rate: float, alpha: int) -> float:
    """Chance that alpha uniform alarms recall every event after adjustment.

    With independent per-alarm hit probability equal to the contamination
    rate r, a single segment is hit at least once with probability
    1 - (1 - r)^alpha. Valid for the single-segment case and, with r the
    per-event rate, as a per-event quantity.
    """
    if not 0.0 <= contamination_rate <= 1.0:
        raise ValueError(f"contamination_rate {contamination_rate} outside [0, 1]")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 1.0 - (1.0 - contamination_rate) ** alpha


def f1_pa_for_hits(anomalous_length: int, alpha: int, hits: int) -> float:
    """Adjusted F1 of a single-segment attack that lands `hits` alarms inside.

    With s >= 1 hits the whole segment of length A is credited (recall 1,
    A true positives) and the alpha - s misses stay false positives, giving
    F1 = 2A / (2A + alpha - s). Zero hits leave recall at 0, hence F1 = 0.
    """
    if anomalous_length < 1:
        raise ValueError("anomalous_length must be >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not 0 <= hits <= alpha:
        raise ValueError(f"hits must lie in [0, alpha], got {hits}")
    if hits == 0:
        return 0.0
    a = anomalous_length
    return 2.0 * a / (2.0 * a + alpha - hits)


def worst_case_precision_pa(anomalous_length: int, alpha: int) -> float:
    """Adjusted precision of the least lucky non-zero outcome (one hit)."""
    if anomalous_length < 1 or alpha < 1:
        raise ValueError("anomalous_length and alpha must be >= 1")
    return anomalous_length / (anomalous_length + alpha - 1)


def worst_case_f1_pa(anomalous_length: int, alpha: int) -> float:
    """Adjusted F1 of the least lucky non-zero outcome (one hit)."""
    return f1_pa_for_hits(anomalous_length, alpha, hits=1)


@dataclass(frozen=True)
class WorstCaseRow:
    """One alpha's analytic attack outcome for the worst-case table."""

    alpha: int
    p_perfect_recall: float
    worst_precision_pa: float
    worst_f1_pa: float


def worst_case_table(
    anomalous_length: int,
    contamination_rate: float,
    alphas: "list[int] | np.ndarray",
) -> list[WorstCaseRow]:
    """Analytic curves of the attack outcome as the alarm budget grows."""
    rows = []
    for alpha in alphas:
        alpha = int(alpha)
        rows.append(
            WorstCaseRow(
                alpha=alpha,
                p_perfect_recall=prob_perfect_recall(contamination_rate, alpha),
                worst_precision_pa=worst_case_precision_pa(
                    anomalous_length, alpha
                ),
                worst_f1_pa=worst_case_f1_pa(anomalous_length, alpha),
            )
        )
    return rows


class SamplingModel(str, Enum):
    """How hit counts are modelled for the analytic F1 distribution.

    BERNOULLI_APPROX treats each alarm as an independent coin with success
    probability equal to the contamination rate (sampling with
    replacement). EXACT_HYPERGEOMETRIC draws the alpha alarm positions
    without replacement, which is what the attack actually does; the two
    agree closely once alpha is small relative to the series.
    """

    BERNOULLI_APPROX = "bernoulli-approx"
    EXACT_HYPERGEOMETRIC = "exact-hypergeometric"


def hit_probabilities(
    setup: AttackSetup, model: SamplingModel = SamplingModel.BERNOULLI_APPROX
) -> np.ndarray:
    """P(s hits inside the segment) for s = 0..alpha under the given model."""
    # imported on first call: scipy.stats takes over a second to import,
    # and most commands never get here
    from scipy import stats

    s = np.arange(setup.alpha + 1)
    model = SamplingModel(model)
    if model is SamplingModel.BERNOULLI_APPROX:
        return stats.binom.pmf(s, setup.alpha, setup.contamination_rate)
    return stats.hypergeom.pmf(
        s, setup.total_points, setup.anomalous_length, setup.alpha
    )


@dataclass(frozen=True)
class F1PaDistribution:
    """Distribution of the adjusted F1 a random flagger achieves.

    Support rows are ordered by hit count (equivalently by F1, which is
    increasing in hits). `model` is the SamplingModel value for analytic
    distributions or "monte-carlo" for empirical ones.
    """

    setup: AttackSetup
    model: str
    hits: np.ndarray
    f1: np.ndarray
    probability: np.ndarray
    trials: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not (len(self.hits) == len(self.f1) == len(self.probability)):
            raise ValueError("support arrays must have equal length")
        if len(self.hits) == 0:
            raise ValueError("distribution support is empty")
        if np.any(np.diff(self.hits) <= 0):
            raise ValueError("hit counts must be strictly increasing")
        total = float(self.probability.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, not 1")
        for arr in (self.hits, self.f1, self.probability):
            arr.setflags(write=False)

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.probability)

    @property
    def prob_zero(self) -> float:
        """P(F1 = 0), i.e. the chance no alarm lands inside the segment."""
        return float(self.probability[self.hits == 0].sum())

    def prob_f1_at_least(self, threshold: float) -> float:
        """P(F1 >= threshold), tolerant to float rounding at the boundary."""
        return float(self.probability[self.f1 >= threshold - 1e-12].sum())

    @property
    def mean_f1(self) -> float:
        return float(np.dot(self.f1, self.probability))

    def rows(self) -> list[dict]:
        """CSV-ready rows: s, f1_value, probability, cumulative."""
        cum = self.cumulative
        return [
            {
                "s": int(self.hits[i]),
                "f1_value": float(self.f1[i]),
                "probability": float(self.probability[i]),
                "cumulative": float(cum[i]),
            }
            for i in range(len(self.hits))
        ]


def f1_pa_distribution(
    setup: AttackSetup, model: SamplingModel = SamplingModel.BERNOULLI_APPROX
) -> F1PaDistribution:
    """Analytic distribution of adjusted F1 under the given hit model."""
    model = SamplingModel(model)
    hits = np.arange(setup.alpha + 1, dtype=np.int64)
    f1 = np.where(
        hits == 0,
        0.0,
        2.0
        * setup.anomalous_length
        / (2.0 * setup.anomalous_length + setup.alpha - hits),
    )
    probability = hit_probabilities(setup, model)
    return F1PaDistribution(
        setup=setup,
        model=model.value,
        hits=hits,
        f1=f1,
        probability=probability,
    )


def trial_seed(seed: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed, decorrelated across trials."""
    return np.random.SeedSequence((seed, trial_index))


def _draw(
    total: int,
    alpha: int,
    seed: "int | np.random.SeedSequence | np.random.Generator",
) -> np.ndarray:
    """One attack's alarm positions: alpha distinct uniform draws from
    range(total), in draw order."""
    if not 0 <= alpha <= total:
        raise ValueError(f"alpha must lie in [0, {total}], got {alpha}")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    return rng.choice(total, size=alpha, replace=False)


def run_attack(
    labels: LabelSeries,
    alpha: int,
    seed: "int | np.random.SeedSequence | np.random.Generator" = 0,
) -> PredictionSeries:
    """One attack: alpha alarms at distinct uniformly random positions."""
    values = np.zeros(len(labels), dtype=np.int8)
    values[_draw(len(labels), alpha, seed)] = 1
    return PredictionSeries(values)


def monte_carlo_f1_pa(
    setup: AttackSetup, trials: int, seed: int = 0
) -> F1PaDistribution:
    """Empirical adjusted-F1 distribution from `trials` end-to-end attacks.

    Every trial draws fresh alarm positions (sub-seeded from (seed, trial
    index)) and is scored from them through the point-adjust formula that
    score() uses; nothing analytic is reused, so this doubles as an
    independent check of the closed forms.
    """
    outcomes = random_flag_trials(
        setup.labels(), setup.alpha, trials, seed, (Protocol.POINT_ADJUST,)
    )
    return outcomes.point_adjust_distribution(setup)


@dataclass(frozen=True)
class RandomFlagTrials:
    """Per-trial attack outcomes under one or more protocols."""

    alpha: int
    trials: int
    seed: int
    hits: np.ndarray
    f1_by_protocol: dict = field(default_factory=dict)

    def mean_f1(self, protocol: Protocol) -> float:
        return float(self.f1_by_protocol[Protocol(protocol)].mean())

    def point_adjust_distribution(
        self, setup: AttackSetup
    ) -> F1PaDistribution:
        """Group the trials' point-adjust F1 by hit count.

        On a single-segment layout the adjusted F1 is a function of the hit
        count alone, so every trial with the same count has the same F1.
        """
        counts = np.bincount(self.hits)
        f1_by_hits = np.empty(counts.size)
        f1_by_hits[self.hits] = self.f1_by_protocol[Protocol.POINT_ADJUST]
        observed = np.flatnonzero(counts)
        return F1PaDistribution(
            setup=setup,
            model="monte-carlo",
            hits=observed,
            f1=f1_by_hits[observed],
            probability=counts[observed] / self.trials,
            trials=self.trials,
            seed=self.seed,
        )


# a block of trials holds about this many alarm positions, which keeps the
# engine's temporaries to a few MB however many trials run
_BLOCK_ALARMS = 2**16


def _block_counts(labels: LabelSeries, alarms: np.ndarray) -> dict:
    """Every count protocols._rates reads, one per row of sorted alarms.

    Row i of `alarms` holds one trial's distinct alarm positions in
    ascending order. An alarm's event is the last one starting at or before
    it, and the alarm is a hit when it lies at or before that event's end.
    Hits on one event are adjacent in a row, so the first of them marks the
    event detected. A predicted segment is a run of consecutive positions,
    and it is false when none of its alarms is a hit.
    """
    starts, ends = labels.starts, labels.ends
    rows, alpha = alarms.shape
    event = np.searchsorted(starts, alarms, side="right") - 1
    # event -1 (before the first event) reads the appended end -1 and
    # length 0
    inside = alarms <= np.append(ends, -1)[event]
    first_hit = inside.copy()
    first_hit[:, 1:] &= event[:, 1:] != event[:, :-1]
    new_segment = np.ones(alarms.shape, dtype=bool)
    new_segment[:, 1:] = np.diff(alarms, axis=1) != 1
    segment = np.cumsum(new_segment, axis=1) - 1
    row = np.broadcast_to(np.arange(rows)[:, None], alarms.shape)
    true_segment = np.zeros(alarms.shape, dtype=bool)
    true_segment[row[inside], segment[inside]] = True
    tp = np.count_nonzero(inside, axis=1)
    fp = alpha - tp
    tp_e = np.count_nonzero(first_hit, axis=1)
    n_normal = labels.n_normal
    return {
        "tp": tp,
        "fp": fp,
        "fn": labels.n_anomalous - tp,
        # a series with no normal points has FAR 0, as in false_alarm_rate
        "far": fp / n_normal if n_normal else np.zeros(rows),
        "adjusted_tp": np.where(
            first_hit, np.append(ends - starts + 1, 0)[event], 0
        ).sum(axis=1),
        "tp_e": tp_e,
        "fp_e": np.count_nonzero(new_segment, axis=1)
        - np.count_nonzero(true_segment, axis=1),
        "fn_e": labels.n_events - tp_e,
    }


def random_flag_trials(
    labels: LabelSeries,
    alpha: int,
    trials: int,
    seed: int = 0,
    protocols: tuple[Protocol, ...] = tuple(Protocol),
) -> RandomFlagTrials:
    """Run repeated attacks against arbitrary labels, scoring each trial.

    Accepts any label layout (multiple events, varying lengths) and any
    protocol subset, which is how the attack is evaluated against realistic
    event mixes; monte_carlo_f1_pa is this engine on one centred segment.

    Trial i draws the alarms run_attack(labels, alpha, trial_seed(seed, i))
    would flag. Trials are scored a block at a time from their alarm
    positions alone, and protocols._rates turns the counts into F1, so
    every F1 equals score() on that trial's predictions bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    protocols = tuple(Protocol(p) for p in protocols)
    hits = np.zeros(trials, dtype=np.int64)
    f1 = {p: np.zeros(trials) for p in protocols}
    rows = max(1, _BLOCK_ALARMS // max(alpha, 1))
    for first in range(0, trials, rows):
        block = slice(first, min(first + rows, trials))
        alarms = np.array(
            [
                _draw(len(labels), alpha, trial_seed(seed, i))
                for i in range(first, block.stop)
            ]
        )
        alarms.sort(axis=1)
        counts = _block_counts(labels, alarms)
        hits[block] = counts["tp"]
        for p in protocols:
            f1[p][block] = _rates(p, **counts)[2]
    if protocols and not labels.n_normal:
        warnings.warn(FAR_NO_NORMAL_WARNING, stacklevel=2)
    return RandomFlagTrials(
        alpha=alpha, trials=trials, seed=seed, hits=hits, f1_by_protocol=f1
    )
