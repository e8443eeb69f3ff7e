"""Random-flag attack: closed forms, distributions and the Monte Carlo path."""

import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsadeval import adversary
from tsadeval.adversary import (
    AttackSetup,
    SamplingModel,
    f1_pa_distribution,
    f1_pa_for_hits,
    hit_probabilities,
    monte_carlo_f1_pa,
    prob_perfect_recall,
    random_flag_trials,
    run_attack,
    single_segment_labels,
    trial_seed,
    worst_case_f1_pa,
    worst_case_precision_pa,
    worst_case_table,
)
from tsadeval.data_io import AnomalySignal, SyntheticSpec, synthetic_labels
from tsadeval.metrics import LabelSeries, PredictionSeries, point_confusion
from tsadeval.protocols import Protocol, score


def binom_pmf(k, n, p):
    """Independent oracle for the with-replacement hit model."""
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def hyper_pmf(s, total, marked, draws):
    """Independent oracle for the without-replacement hit model."""
    if s < max(0, draws - (total - marked)) or s > min(draws, marked):
        return 0.0
    return (
        math.comb(marked, s)
        * math.comb(total - marked, draws - s)
        / math.comb(total, draws)
    )


@st.composite
def small_setups(draw):
    """A series of at most 40 points, any event length and alarm count."""
    total = draw(st.integers(min_value=1, max_value=40))
    return AttackSetup(
        total,
        draw(st.integers(min_value=1, max_value=total)),
        draw(st.integers(min_value=1, max_value=total)),
    )


class TestClosedForms:
    def test_prob_perfect_recall_values(self):
        assert prob_perfect_recall(0.1, 5) == pytest.approx(
            0.40951, abs=1e-9
        )
        assert prob_perfect_recall(0.5, 1) == 0.5
        assert prob_perfect_recall(0.0, 10) == 0.0
        assert prob_perfect_recall(1.0, 1) == 1.0

    def test_prob_perfect_recall_monotone_in_alpha(self):
        values = [prob_perfect_recall(0.05, a) for a in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_prob_perfect_recall_validation(self):
        with pytest.raises(ValueError):
            prob_perfect_recall(1.5, 3)
        with pytest.raises(ValueError):
            prob_perfect_recall(0.1, 0)

    def test_f1_for_hits_matches_confusion_arithmetic(self):
        # one hit inside a 50-long event among 26 alarms: the adjustment
        # yields tp=50, fp=25, fn=0, so f1 = 100/125
        assert f1_pa_for_hits(50, 26, 1) == 2 * 50 / (2 * 50 + 25)
        assert f1_pa_for_hits(50, 26, 0) == 0.0
        assert f1_pa_for_hits(50, 26, 26) == 1.0

    def test_f1_for_hits_increases_with_hits(self):
        values = [f1_pa_for_hits(30, 20, s) for s in range(21)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_worst_case_anchors(self):
        assert worst_case_f1_pa(50, 26) == 0.8
        assert worst_case_f1_pa(500, 50) == pytest.approx(
            1000 / 1049, abs=1e-9
        )
        assert worst_case_precision_pa(50, 26) == pytest.approx(50 / 75)

    def test_worst_case_is_f1_of_precision(self):
        # with recall forced to 1, f1 = 2p / (p + 1)
        for a, alpha in [(50, 26), (500, 50), (10, 3)]:
            p = worst_case_precision_pa(a, alpha)
            assert worst_case_f1_pa(a, alpha) == pytest.approx(
                2 * p / (p + 1), abs=1e-12
            )

    def test_end_to_end_worst_case(self):
        # place exactly one alarm inside the event and alpha-1 outside;
        # the real scorer must reproduce the closed form
        labels = single_segment_labels(200, 40, start=100)
        values = np.zeros(200, dtype=np.int8)
        values[110] = 1
        values[:9] = 1
        from tsadeval.metrics import PredictionSeries

        report = score(labels, PredictionSeries(values), Protocol.POINT_ADJUST)
        assert report.f1 == pytest.approx(
            worst_case_f1_pa(40, 10), abs=1e-12
        )
        assert report.precision == pytest.approx(
            worst_case_precision_pa(40, 10), abs=1e-12
        )

    def test_worst_case_table_rows(self):
        rows = worst_case_table(50, 0.1, [1, 26, 100])
        assert [r.alpha for r in rows] == [1, 26, 100]
        assert rows[1].worst_f1_pa == 0.8
        assert rows[0].worst_f1_pa == 1.0
        assert rows[2].p_perfect_recall == pytest.approx(
            1 - 0.9**100, abs=1e-12
        )


class TestSetup:
    def test_contamination(self):
        setup = AttackSetup(500, 50, 5)
        assert setup.contamination_rate == pytest.approx(0.1)
        labels = setup.labels()
        assert labels.n_anomalous == 50
        assert labels.n_events == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(total_points=0, anomalous_length=1, alpha=1),
            dict(total_points=10, anomalous_length=0, alpha=1),
            dict(total_points=10, anomalous_length=11, alpha=1),
            dict(total_points=10, anomalous_length=5, alpha=0),
            dict(total_points=10, anomalous_length=5, alpha=11),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackSetup(**kwargs)


class TestHitDistributions:
    def test_bernoulli_matches_oracle(self):
        setup = AttackSetup(500, 50, 5)
        pmf = hit_probabilities(setup, SamplingModel.BERNOULLI_APPROX)
        for s in range(6):
            assert pmf[s] == pytest.approx(binom_pmf(s, 5, 0.1), abs=1e-12)

    def test_hypergeometric_matches_oracle(self):
        setup = AttackSetup(500, 50, 5)
        pmf = hit_probabilities(setup, SamplingModel.EXACT_HYPERGEOMETRIC)
        for s in range(6):
            assert pmf[s] == pytest.approx(
                hyper_pmf(s, 500, 50, 5), abs=1e-12
            )

    def test_distribution_sums_to_one(self):
        for model in SamplingModel:
            dist = f1_pa_distribution(AttackSetup(1000, 100, 30), model)
            assert dist.probability.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.cumulative[-1] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(small_setups(), st.sampled_from(SamplingModel))
    @example(AttackSetup(12, 12, 5), SamplingModel.BERNOULLI_APPROX)
    @example(AttackSetup(12, 12, 5), SamplingModel.EXACT_HYPERGEOMETRIC)
    @example(AttackSetup(12, 3, 12), SamplingModel.BERNOULLI_APPROX)
    @example(AttackSetup(12, 3, 12), SamplingModel.EXACT_HYPERGEOMETRIC)
    @example(AttackSetup(12, 7, 9), SamplingModel.EXACT_HYPERGEOMETRIC)
    @example(AttackSetup(1, 1, 1), SamplingModel.BERNOULLI_APPROX)
    def test_pmf_matches_math_comb(self, setup, model):
        # A == T, alpha == T and alpha > T - A, whose hypergeometric
        # support starts above 0, are among the examples
        total, marked, alpha = (
            setup.total_points, setup.anomalous_length, setup.alpha
        )
        pmf = hit_probabilities(setup, model)
        oracle = np.array(
            [
                binom_pmf(s, alpha, marked / total)
                if model is SamplingModel.BERNOULLI_APPROX
                else hyper_pmf(s, total, marked, alpha)
                for s in range(alpha + 1)
            ]
        )
        assert np.max(np.abs(pmf - oracle)) <= 1e-13
        assert abs(pmf.sum() - 1.0) <= 1e-12
        # outside the support (the oracle's exact zeros) nothing is left
        assert not pmf[oracle == 0.0].any()

    def test_pmf_at_criterion_05_scale(self):
        # criterion 05's series length and its largest event
        setup = AttackSetup(450_000, 44_650, 1000)
        pmf = hit_probabilities(setup, SamplingModel.EXACT_HYPERGEOMETRIC)
        oracle = np.array(
            [hyper_pmf(s, 450_000, 44_650, 1000) for s in range(1001)]
        )
        assert np.max(np.abs(pmf - oracle)) <= 1e-13
        assert abs(pmf.sum() - 1.0) <= 1e-12

    def test_pmf_symmetric_at_half_contamination(self):
        # at r = 1/2 both pmfs are symmetric under s -> alpha - s; summed
        # outward from the mode they stay so to the last bit, where one
        # cumulative sum from s = 0 drifts by about 2e-13 at this alpha
        setup = AttackSetup(450_000, 225_000, 100_000)
        for model in SamplingModel:
            pmf = hit_probabilities(setup, model)
            assert np.array_equal(pmf, pmf[::-1])

    def test_prob_zero_anchors(self):
        dist = f1_pa_distribution(
            AttackSetup(500, 50, 5), SamplingModel.BERNOULLI_APPROX
        )
        assert dist.prob_zero == pytest.approx(0.59049, abs=1e-9)
        exact = f1_pa_distribution(
            AttackSetup(500, 50, 5), SamplingModel.EXACT_HYPERGEOMETRIC
        )
        assert exact.prob_zero == pytest.approx(
            hyper_pmf(0, 500, 50, 5), abs=1e-12
        )

    def test_perfect_recall_complements_prob_f1_at_least_worst(self):
        setup = AttackSetup(500, 50, 26)
        dist = f1_pa_distribution(setup, SamplingModel.BERNOULLI_APPROX)
        target = prob_perfect_recall(0.1, 26)
        assert dist.prob_f1_at_least(worst_case_f1_pa(50, 26)) == pytest.approx(
            target, abs=1e-9
        )
        assert dist.prob_zero == pytest.approx(1.0 - target, abs=1e-9)

    def test_model_gap_small_at_scale(self):
        # with alarms at ~1% of the series the with-replacement
        # approximation stays within 2e-3 of the exact model on P(s=0)
        worst = 0.0
        for total in (500, 1000, 5000, 50000):
            marked = total // 10
            draws = total // 100
            setup = AttackSetup(total, marked, draws)
            gap = abs(
                f1_pa_distribution(
                    setup, SamplingModel.BERNOULLI_APPROX
                ).prob_zero
                - f1_pa_distribution(
                    setup, SamplingModel.EXACT_HYPERGEOMETRIC
                ).prob_zero
            )
            worst = max(worst, gap)
        assert worst < 0.002

    def test_mean_f1_between_bounds(self):
        setup = AttackSetup(500, 50, 26)
        dist = f1_pa_distribution(setup)
        assert 0.0 < dist.mean_f1 < 1.0
        assert dist.rows()[0]["s"] == 0
        assert dist.rows()[-1]["cumulative"] == pytest.approx(1.0, abs=1e-9)


class TestRunAttack:
    def test_flag_count_and_determinism(self):
        labels = single_segment_labels(300, 30)
        a = run_attack(labels, 17, seed=5)
        b = run_attack(labels, 17, seed=5)
        c = run_attack(labels, 17, seed=6)
        assert a.n_positive == 17
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_alpha_bounds(self):
        labels = single_segment_labels(10, 2)
        assert run_attack(labels, 0, seed=1).n_positive == 0
        assert run_attack(labels, 10, seed=1).n_positive == 10
        with pytest.raises(ValueError):
            run_attack(labels, 11, seed=1)

    def test_positions_are_distinct_uniform_ish(self):
        labels = single_segment_labels(50, 5)
        counts = np.zeros(50)
        for i in range(2000):
            counts += run_attack(labels, 5, trial_seed(0, i)).values
        # every position should be hit roughly 2000 * 5/50 = 200 times
        assert counts.min() > 120
        assert counts.max() < 290


class CoarseKeys:
    """A generator whose random keys take four values, so that random keys
    often tie at the cut and the sampler must draw them again."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.integers = self._rng.integers
        self.key_rows = 0

    def random(self, size):
        self.key_rows += size[0]
        return self._rng.integers(4, size=size) / 4.0


# (total, alpha, path): k = min(alpha, total - alpha) is drawn by random keys
# when 5k > total, else by redrawing repeats, of the unflagged points when
# alpha > total / 2; (10, 2)/(10, 3) and (10, 8)/(10, 7) straddle the switch
SUBSET_CASES = [
    (6, 1, "sparse"),
    (6, 2, "dense"),
    (6, 3, "dense"),
    (6, 4, "dense"),
    (6, 5, "sparse"),
    (8, 2, "dense"),
    (8, 4, "dense"),
    (10, 2, "sparse"),
    (10, 3, "dense"),
    (10, 7, "dense"),
    (10, 8, "sparse"),
]


class TestSampler:
    """adversary._sample: every row a uniformly random alpha-subset."""

    @pytest.mark.parametrize("total", [1, 2, 5, 10, 11, 40])
    def test_rows_are_sorted_distinct_and_in_range(self, total):
        rng = np.random.default_rng(total)
        for alpha in range(total + 1):
            alarms = adversary._sample(total, alpha, 7, rng)
            assert alarms.shape == (7, alpha)
            assert np.all(np.diff(alarms, axis=1) > 0)
            assert np.all((alarms >= 0) & (alarms < total))
        for alpha in (-1, total + 1):
            with pytest.raises(ValueError, match="alpha must lie in"):
                adversary._sample(total, alpha, 1, rng)

    @pytest.mark.parametrize(
        "total,alpha,path,coarse",
        [(*case, False) for case in SUBSET_CASES] + [(6, 3, "dense", True)],
        ids=lambda v: str(v),
    )
    def test_rows_are_uniform_over_subsets(self, total, alpha, path, coarse):
        # chi-square goodness of fit over all comb(total, alpha) subsets,
        # with the oracle's count of subsets; rejected at the 0.1% level
        from scipy import stats

        rows = 30_000
        rng = CoarseKeys(alpha) if coarse else np.random.default_rng(alpha)
        with mock.patch.object(
            adversary, "_random_keys", wraps=adversary._random_keys
        ) as keys:
            alarms = adversary._sample(total, alpha, rows, rng)
        assert keys.called == (path == "dense")
        if coarse:
            assert rng.key_rows > rows  # ties were drawn again
        subsets = (1 << alarms).sum(axis=1)
        n_subsets = math.comb(total, alpha)
        counts = np.unique(subsets, return_counts=True)[1]
        assert counts.size == n_subsets
        expected = rows / n_subsets
        chi2 = float((counts.astype(float) ** 2).sum() / expected - rows)
        assert stats.chi2.sf(chi2, n_subsets - 1) > 0.001

    @pytest.mark.parametrize(
        "total,marked,alpha,seed",
        [(60, 6, 30, 21), (60, 2, 50, 22)],
        ids=["dense", "sparse-unflagged"],
    )
    def test_zero_hits_match_hypergeometric(self, total, marked, alpha, seed):
        # test_matches_exact_model_small covers the sparse path
        trials = 40_000
        dist = monte_carlo_f1_pa(
            AttackSetup(total, marked, alpha), trials=trials, seed=seed
        )
        exact = hyper_pmf(0, total, marked, alpha)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(dist.prob_zero - exact) < 3 * se

    @pytest.mark.parametrize(
        "total,alpha", [(450_000, 1000), (20_000, 10_000)],
        ids=["sparse", "dense"],
    )
    def test_memory_is_bounded_by_the_block(self, total, alpha):
        # a block of trials holds rows * alpha <= _BLOCK_ALARMS alarms and,
        # when dense, a key and an index for each of its rows * total
        # points; at most three 8-byte arrays of each kind live at once
        rows = max(1, adversary._BLOCK_ALARMS // alpha)
        dense = adversary._DENSE_DIVISOR * min(alpha, total - alpha) > total
        assert dense == (alpha == 10_000)
        cap = 3 * 8 * (rows * alpha + dense * rows * total)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            adversary._sample(total, alpha, rows, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap


class TestMonteCarlo:
    def test_matches_exact_model_small(self):
        setup = AttackSetup(200, 20, 4)
        trials = 40000
        dist = monte_carlo_f1_pa(setup, trials=trials, seed=11)
        exact = hyper_pmf(0, 200, 20, 4)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(dist.prob_zero - exact) < 3 * se
        assert dist.model == "monte-carlo"
        assert dist.trials == trials

    def test_f1_support_matches_closed_form(self):
        setup = AttackSetup(100, 10, 3)
        dist = monte_carlo_f1_pa(setup, trials=3000, seed=2)
        for s, f1 in zip(dist.hits, dist.f1):
            assert f1 == pytest.approx(
                f1_pa_for_hits(10, 3, int(s)), abs=1e-12
            )

    def test_reproducible(self):
        setup = AttackSetup(150, 15, 5)
        a = monte_carlo_f1_pa(setup, trials=500, seed=9)
        b = monte_carlo_f1_pa(setup, trials=500, seed=9)
        assert np.array_equal(a.probability, b.probability)

    def test_trial_seeds_differ(self):
        assert trial_seed(0, 1).entropy != trial_seed(0, 2).entropy
        assert trial_seed(1, 0).entropy != trial_seed(2, 0).entropy


class TestRandomFlagTrials:
    def test_multi_event_labels(self):
        values = np.zeros(400, dtype=np.int8)
        values[50:80] = 1
        values[200:260] = 1
        labels = LabelSeries(values)
        trials = random_flag_trials(labels, alpha=20, trials=200, seed=3)
        pa = trials.f1_by_protocol[Protocol.POINT_ADJUST]
        pw = trials.f1_by_protocol[Protocol.POINT_WISE]
        assert np.all(pa >= pw - 1e-12)
        assert trials.hits.shape == (200,)

    def test_point_adjust_distribution_refuses_several_events(self):
        # a hit in the short event credits fewer points than one in the
        # long event, so the adjusted F1 is no function of the hit count
        values = np.zeros(100, dtype=np.int8)
        values[10:15] = 1
        values[50:80] = 1
        labels = LabelSeries(values)
        trials = random_flag_trials(labels, alpha=5, trials=2000, seed=1)
        setup = AttackSetup(100, labels.n_anomalous, 5)
        with pytest.raises(ValueError, match="no function of the hit count"):
            trials.point_adjust_distribution(setup)

    def test_hits_agree_with_confusion(self):
        labels = single_segment_labels(100, 10)
        trials = random_flag_trials(
            labels, alpha=5, trials=50, seed=4, protocols=(Protocol.POINT_WISE,)
        )
        for i, preds in enumerate(engine_predictions(labels, 5, 50, 4)):
            assert trials.hits[i] == point_confusion(labels, preds).tp


def engine_predictions(labels, alpha, trials, seed):
    """Each trial's prediction, flagged at the alarms the engine drew."""
    preds = []
    for _, alarms in adversary._alarm_blocks(len(labels), alpha, trials, seed):
        for row in alarms:
            values = np.zeros(len(labels), dtype=np.int8)
            values[row] = 1
            preds.append(PredictionSeries(values))
    assert len(preds) == trials
    return preds


def attack_layouts():
    """(label values, seed): any layout of up to 24 points."""
    return st.tuples(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


@st.composite
def attacks(draw):
    """(label values, seed, alpha) with alpha in [0, len(values)]."""
    values, seed = draw(attack_layouts())
    return values, seed, draw(st.integers(min_value=0, max_value=len(values)))


TRIALS_PER_ALPHA = 6


class TestTrialsAgainstScore:
    """The engine scores alarm positions without building a prediction;
    score() on each trial's prediction, flagged at the alarms the engine
    drew, is the oracle, for every alpha."""

    @staticmethod
    def assert_trials_equal_score(labels, alpha, trials, seed):
        outcome = random_flag_trials(labels, alpha, trials, seed)
        preds = engine_predictions(labels, alpha, trials, seed)
        for i, pred in enumerate(preds):
            assert pred.n_positive == alpha
            assert outcome.hits[i] == point_confusion(labels, pred).tp
            for p in Protocol:
                assert outcome.f1_by_protocol[p][i] == score(
                    labels, pred, p
                ).f1

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=150, deadline=None)
    @given(attack_layouts())
    @example(([1, 1, 0, 0, 1, 0, 0, 1], 0))  # events at both ends
    @example(([0, 0, 0, 0, 0], 0))  # no events
    @example(([1, 1, 1, 1], 0))  # all anomalous
    @example(([1], 0))  # length 1
    # alpha=2 and alpha=3 both fill the gap 1..2 in trial 5 (checked
    # below), so alarms span a whole gap between two events
    @example(([1, 0, 0, 1], 1))
    def test_hits_and_f1_equal_score(self, layout):
        values, seed = layout
        labels = LabelSeries(values)
        # every example runs alpha = 0 and alpha = T too
        for alpha in range(len(values) + 1):
            self.assert_trials_equal_score(
                labels, alpha, TRIALS_PER_ALPHA, seed
            )

    def test_gap_filling_example_fills_the_gap(self):
        labels = LabelSeries([1, 0, 0, 1])
        for alpha in (2, 3):
            preds = engine_predictions(labels, alpha, TRIALS_PER_ALPHA, 1)
            assert preds[5].values[1:3].tolist() == [1, 1]

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(attacks(), st.integers(min_value=1, max_value=5))
    @example(([0, 1, 1, 0, 0, 1], 0, 3), 1)
    def test_any_block_size_scores_equal_score(self, attack, rows):
        values, seed, alpha = attack
        trials = 2 * 5 + 1  # a partial last block for every rows value
        with mock.patch.object(adversary, "_BLOCK_ALARMS", rows * max(alpha, 1)):
            self.assert_trials_equal_score(
                LabelSeries(values), alpha, trials, seed
            )

    def test_seed_fixes_every_trial(self):
        labels = LabelSeries([0, 1, 1, 0, 0, 0, 1, 0, 0, 0] * 30)

        def run(seed):
            blocks = adversary._alarm_blocks(300, 40, 5000, seed)
            alarms = np.concatenate([a for _, a in blocks])
            return alarms, random_flag_trials(labels, 40, 5000, seed)

        (alarms, first), (again, second), (other, third) = map(run, (7, 7, 8))
        assert np.array_equal(alarms, again)
        assert np.array_equal(first.hits, second.hits)
        for p in Protocol:
            assert np.array_equal(
                first.f1_by_protocol[p], second.f1_by_protocol[p]
            )
        # 5000 trials of 40 alarms span four blocks, each seeded apart
        assert alarms.shape == (5000, 40)
        for rows in (slice(0, 1638), slice(1638, 3276), slice(4914, 5000)):
            assert not np.array_equal(alarms[rows], other[rows])
        assert not np.array_equal(first.hits, third.hits)

    def test_all_anomalous_warns_once(self):
        labels = LabelSeries([1] * 6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trials = random_flag_trials(labels, alpha=3, trials=40, seed=1)
        assert [str(w.message) for w in caught] == [
            "false_alarm_rate over a series with no normal points; "
            "returning 0.0 by convention"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, preds in enumerate(engine_predictions(labels, 3, 40, 1)):
                for p in Protocol:
                    assert trials.f1_by_protocol[p][i] == score(
                        labels, preds, p
                    ).f1


# criterion 05's event mix: 450k points, 35 events, contamination 0.12
CRITERION_05_SPEC = SyntheticSpec(
    total_points=450_000,
    event_lengths=tuple([100] * 17 + [450] * 17 + [44_650]),
    n_channels=1,
    anomaly_signal=AnomalySignal.MEAN_SHIFT,
    seed=20260816,
)


class TestEngineGoldenAtScale:
    """The engine's hits and F1 on criterion 05's mix, pinned by SHA-256.

    300 trials of 1000 alarms run as five blocks of 65 rows, the last one
    partial, so the pin covers the block loop as well as the counts. A
    faster engine must keep every hit count and every F1 bit for bit.
    """

    HITS = "0b5b5bb179fc7ea0c4d33bd8a47b355e141828675f1fc0da4b4262f830e9fcc8"
    F1 = {
        Protocol.POINT_WISE: (
            "a541212f6421624ee87632897640e706e2fb430614b95898957638cdb80e60e2"
        ),
        Protocol.POINT_ADJUST: (
            "5766cf900d8394464fd9e1d2b03ca86b21987fdfb3f4ddc38c37c2be1a7e268a"
        ),
        Protocol.COMPOSITE: (
            "fb916413f8e42e20bc40a277b5dfad326c75b123871cf63ba094836d77cdf40b"
        ),
        Protocol.EVENT_WISE: (
            "9672a65f75d17ca1d65127af62cf4c51f1124081039c2da7862d31dbd00e0335"
        ),
    }

    def test_hits_and_f1_are_pinned(self):
        labels = synthetic_labels(CRITERION_05_SPEC)
        blocks = list(adversary._alarm_blocks(len(labels), 1000, 300, 5))
        assert [b.stop - b.start for b, _ in blocks] == [65] * 4 + [40]
        outcome = random_flag_trials(labels, alpha=1000, trials=300, seed=5)
        assert outcome.hits.dtype == np.int64
        assert hashlib.sha256(outcome.hits.tobytes()).hexdigest() == self.HITS
        for p in Protocol:
            f1 = outcome.f1_by_protocol[p]
            assert f1.dtype == np.float64
            assert hashlib.sha256(f1.tobytes()).hexdigest() == self.F1[p]
