"""Random-flag stress test for the point-adjust protocol.

An adversary with no detection skill raises a fixed number of alarms at
uniformly random distinct time points. Under point-adjust scoring a single
lucky alarm inside a long event is expanded to the whole event, so the
expected score of this predictor is far from 0. This module provides the
closed forms for the single-segment case, the distribution of the
resulting F1 under two sampling models, and a Monte Carlo engine that
draws real alarm positions and scores them, a block of trials at a time.

One sampler (_sample) draws a whole block: a (trials x alpha) array of
sorted positions, each row a uniformly random alpha-subset of the series.
A sparse block draws the alarms (or, past half the series, the points
left unflagged) with replacement and redraws only the repeated values,
which treats every position alike and so stays exact. A dense block,
where the alarms and the unflagged points both exceed a fifth of the
series, keeps each row's alpha smallest of uniform random keys.

The engine never builds a prediction series: protocols._block_counts
counts each protocol's terms from the sorted positions, and
protocols._rates turns them into F1. Counting touches every alarm only
twice, with a gather of the labels and a diff along the row; the rest of
its work grows with the hits, and its memory stays a few arrays of
rows x alpha, like the sampler's. Each sampler path must pass a
chi-square test of uniformity over all subsets.

Closed forms (single anomalous segment of length A inside T points,
alpha random alarms, s of them landing inside the segment):

* P(all events recalled)      = 1 - (1 - r)^alpha, r the contamination rate
* adjusted F1 given s >= 1    = 2A / (2A + alpha - s), and 0 for s = 0
* worst non-zero adjusted F1  = 2A / (2A + alpha - 1)   (s = 1)
* worst adjusted precision    = A / (A + alpha - 1)

hit_probabilities gives P(s) under both hit models from one recurrence
in log space, numpy alone. The ratio P(s + 1) / P(s) is
(alpha - s) / (s + 1) times r / (1 - r) for the binomial, or times
(A - s) / (T - A - alpha + s + 1) for the hypergeometric, whose support
is [max(0, alpha - (T - A)), min(alpha, A)]. Cumulative sums of the log
ratios, taken both ways from the mode, give log P(s) / P(mode); their
exponentials are divided by their sum. Against 40-digit arithmetic it is
within 4.5e-16 on every entry, and its sum within 3.4e-16 of 1, for T up
to 1e8 and alpha up to 100000; the tests hold it to math.comb.
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
    _check_range,
    _is_int,
    point_confusion,
)
from tsadeval.protocols import Protocol, _block_counts, _rates, score

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


def _check_count(name: str, value, low: int, high=math.inf) -> None:
    """_check_range, then refuse a value that is no integer: a count of
    points, alarms or hits must be a whole number."""
    _check_range(name, value, low, high)
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def single_segment_labels(
    total_points: int, segment_length: int, start: Optional[int] = None
) -> LabelSeries:
    """Labels with one anomalous segment; centered unless start is given."""
    _check_count("total_points", total_points, 1)
    _check_count("segment_length", segment_length, 1, total_points)
    if start is None:
        start = (total_points - segment_length) // 2
    _check_count("start", start, 0, total_points - segment_length)
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
        _check_count("total_points", self.total_points, 1)
        _check_count(
            "anomalous_length", self.anomalous_length, 1, self.total_points
        )
        _check_count("alpha", self.alpha, 1, self.total_points)

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
    _check_range("contamination_rate", contamination_rate, 0, 1)
    _check_count("alpha", alpha, 1)
    return 1.0 - (1.0 - contamination_rate) ** alpha


def f1_pa_for_hits(anomalous_length: int, alpha: int, hits: int) -> float:
    """Adjusted F1 of a single-segment attack that lands `hits` alarms inside.

    With s >= 1 hits the whole segment of length A is credited (recall 1,
    A true positives) and the alpha - s misses stay false positives, giving
    F1 = 2A / (2A + alpha - s). Zero hits leave recall at 0, hence F1 = 0.
    """
    _check_count("anomalous_length", anomalous_length, 1)
    _check_count("alpha", alpha, 1)
    _check_count("hits", hits, 0, alpha)
    return float(_f1_pa(anomalous_length, alpha, hits))


def _f1_pa(anomalous_length: int, alpha: int, hits):
    """2A / (2A + alpha - s), and 0 where s = 0, for a hit count or array."""
    a = anomalous_length
    return np.where(hits == 0, 0.0, 2.0 * a / (2.0 * a + alpha - hits))


def worst_case_precision_pa(anomalous_length: int, alpha: int) -> float:
    """Adjusted precision of the least lucky non-zero outcome (one hit)."""
    _check_count("anomalous_length", anomalous_length, 1)
    _check_count("alpha", alpha, 1)
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
    """P(s hits inside the segment) for s = 0..alpha under the given model.

    The log-ratio recurrence of the module docstring, normalised over the
    model's support; entries outside the support are exactly 0.
    """
    total, marked, alpha = (
        setup.total_points, setup.anomalous_length, setup.alpha
    )
    exact = SamplingModel(model) is SamplingModel.EXACT_HYPERGEOMETRIC
    # an all-anomalous series makes every alarm a hit under either model
    if exact or marked == total:
        low, high = max(0, alpha - (total - marked)), min(alpha, marked)
    else:
        low, high = 0, alpha
    s = np.arange(low, high, dtype=np.float64)
    log_ratio = np.log(alpha - s) - np.log(s + 1)
    if exact:
        log_ratio += np.log(marked - s) - np.log(total - marked - alpha + s + 1)
    elif s.size:
        r = setup.contamination_rate
        log_ratio += math.log(r) - math.log1p(-r)
    # log P(s) / P(mode), summed outward from the mode, where the ratio
    # falls below 1: the largest entries then carry the least rounding
    mode = np.count_nonzero(log_ratio > 0)
    below = -np.cumsum(log_ratio[:mode][::-1])[::-1]
    p = np.exp(np.concatenate((below, [0.0], np.cumsum(log_ratio[mode:]))))
    probability = np.zeros(alpha + 1)
    probability[low : high + 1] = p / p.sum()
    return probability


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
    return F1PaDistribution(
        setup=setup,
        model=model.value,
        hits=hits,
        f1=_f1_pa(setup.anomalous_length, setup.alpha, hits),
        probability=hit_probabilities(setup, model),
    )


def trial_seed(seed: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic sub-seed (seed, trial_index), decorrelated across indices.

    random_flag_trials seeds its block number b with trial_seed(seed, b);
    one run_attack per index gives independent single attacks.
    """
    return np.random.SeedSequence((seed, trial_index))


def _distinct(
    total: int, k: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """(rows x k) sorted positions, each row k distinct ones from range(total).

    Each row draws k positions with replacement. While a row repeats a
    value, it keeps one of each and draws as many as it lacks again. A
    row's set grows only by fresh uniform draws, and how many it draws
    depends on the set's size alone; relabelling the positions changes
    nothing, so the final k-set is uniform over all k-subsets.
    """
    drawn = rng.integers(total, size=(rows, k))
    drawn.sort(axis=1)
    todo, block = np.arange(rows), drawn
    while True:
        repeat = np.zeros(block.shape, dtype=bool)
        repeat[:, 1:] = block[:, 1:] == block[:, :-1]
        redo = repeat.any(axis=1)
        if not redo.any():
            return drawn
        todo, block, repeat = todo[redo], block[redo], repeat[redo]
        block[repeat] = rng.integers(total, size=np.count_nonzero(repeat))
        block.sort(axis=1)
        drawn[todo] = block


def _random_keys(
    total: int, alpha: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """(rows x alpha) sorted positions holding each row's alpha smallest of
    `total` uniform keys.

    Keys are exchangeable, so the alpha smallest form a uniform
    alpha-subset. A row whose alpha-th smallest key ties with a key left
    out draws all its keys again: the choice would then depend on position.
    """
    alarms = np.empty((rows, alpha), dtype=np.int64)
    todo = np.arange(rows)
    while todo.size:
        keys = rng.random((todo.size, total))
        picked = np.argpartition(keys, alpha - 1, axis=1)[:, :alpha]
        kth = np.take_along_axis(keys, picked[:, -1:], axis=1)
        tied = np.count_nonzero(keys <= kth, axis=1) > alpha
        alarms[todo[~tied]] = picked[~tied]
        todo = todo[tied]
    alarms.sort(axis=1)
    return alarms


# A draw places k = min(alpha, total - alpha) points: the alarms, or the
# points left unflagged. Random keys cost O(total) per row; redrawing
# repeats costs a sort of k values per round, with more rounds as k nears
# total / 2. Keys are the faster once k exceeds total / _DENSE_DIVISOR
# (timed at total 500, 5000 and 20000).
_DENSE_DIVISOR = 5


def _sample(
    total: int, alpha: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """(rows x alpha) sorted alarm positions, one attack per row.

    Each row is a uniformly random alpha-subset of range(total),
    independent of the other rows. A dense draw takes random keys
    (_random_keys). A sparse one redraws repeats (_distinct), of the
    alarms themselves or, when alpha > total / 2, of the total - alpha
    points left unflagged. Memory is a few arrays of rows * alpha values,
    plus one key (dense) or flag (alpha > total / 2) per point of a row.
    """
    _check_range("alpha", alpha, 0, total)
    k = min(alpha, total - alpha)
    if _DENSE_DIVISOR * k > total:
        return _random_keys(total, alpha, rows, rng)
    chosen = _distinct(total, k, rows, rng)
    if k == alpha:
        return chosen
    flagged = np.ones((rows, total), dtype=bool)
    flagged[np.arange(rows)[:, None], chosen] = False
    return np.nonzero(flagged)[1].reshape(rows, alpha)


def run_attack(
    labels: LabelSeries,
    alpha: int,
    seed: "int | np.random.SeedSequence | np.random.Generator" = 0,
) -> PredictionSeries:
    """One attack: alpha alarms at distinct uniformly random positions.

    The alarms are the one row _sample draws from default_rng(seed), the
    engine's sampler at a block of one trial.
    """
    values = np.zeros(len(labels), dtype=np.int8)
    values[_sample(len(labels), alpha, 1, np.random.default_rng(seed))[0]] = 1
    return PredictionSeries(values)


def monte_carlo_f1_pa(
    setup: AttackSetup, trials: int, seed: int = 0
) -> F1PaDistribution:
    """Empirical adjusted-F1 distribution from `trials` end-to-end attacks.

    Every trial draws fresh alarm positions (a block of trials at a time,
    sub-seeded from (seed, block index)) and is scored from them through
    the point-adjust formula that score() uses; nothing analytic is
    reused, so this doubles as an independent check of the closed forms.
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
        Trials where it is not (more than one event) are refused.
        """
        f1 = self.f1_by_protocol[Protocol.POINT_ADJUST]
        counts = np.bincount(self.hits)
        f1_by_hits = np.empty(counts.size)
        f1_by_hits[self.hits] = f1
        if not np.array_equal(f1_by_hits[self.hits], f1):
            raise ValueError(
                "point-adjust F1 is no function of the hit count: the trials "
                "ran on labels with more than one event"
            )
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


def _alarm_blocks(total: int, alpha: int, trials: int, seed: int):
    """Yield (trial slice, sorted alarms) for consecutive blocks of trials.

    A block holds max(1, _BLOCK_ALARMS // alpha) trials, the last one
    fewer, and block b draws its rows with _sample from
    default_rng(trial_seed(seed, b)).
    """
    rows = max(1, _BLOCK_ALARMS // max(alpha, 1))
    for block, first in enumerate(range(0, trials, rows)):
        stop = min(first + rows, trials)
        rng = np.random.default_rng(trial_seed(seed, block))
        yield slice(first, stop), _sample(total, alpha, stop - first, rng)


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

    Trials are drawn and scored a block at a time (_alarm_blocks): one
    call to the sampler gives every trial of a block its alpha distinct
    alarms, each trial's set uniform over all alpha-subsets of the series
    and independent of the others, and protocols._block_counts counts
    them.
    """
    _check_range("trials", trials, 1)
    protocols = tuple(Protocol(p) for p in protocols)
    hits = np.zeros(trials, dtype=np.int64)
    f1 = {p: np.zeros(trials) for p in protocols}
    for block, alarms in _alarm_blocks(len(labels), alpha, trials, seed):
        counts = _block_counts(labels, alarms)
        hits[block] = counts["tp"]
        for p in protocols:
            f1[p][block] = _rates(p, **counts)[2]
    if protocols and not labels.n_normal:
        warnings.warn(FAR_NO_NORMAL_WARNING, stacklevel=2)
    return RandomFlagTrials(
        alpha=alpha, trials=trials, seed=seed, hits=hits, f1_by_protocol=f1
    )
