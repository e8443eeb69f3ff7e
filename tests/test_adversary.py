"""Random-flag attack: closed forms, distributions and the Monte Carlo path."""

import math
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
from tsadeval.metrics import LabelSeries, point_confusion
from tsadeval.protocols import Protocol, score, score_point_adjust


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

        report = score_point_adjust(labels, PredictionSeries(values))
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
            assert dist.probability.sum() == pytest.approx(1.0, abs=1e-9)
            assert dist.cumulative[-1] == pytest.approx(1.0, abs=1e-9)

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

    def test_hits_agree_with_confusion(self):
        labels = single_segment_labels(100, 10)
        trials = random_flag_trials(
            labels, alpha=5, trials=50, seed=4, protocols=(Protocol.POINT_WISE,)
        )
        for i in range(50):
            preds = run_attack(labels, 5, trial_seed(4, i))
            assert trials.hits[i] == point_confusion(labels, preds).tp


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
    score() on each trial's prediction is the oracle, for every alpha."""

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=150, deadline=None)
    @given(attack_layouts())
    @example(([1, 1, 0, 0, 1, 0, 0, 1], 0))  # events at both ends
    @example(([0, 0, 0, 0, 0], 0))  # no events
    @example(([1, 1, 1, 1], 0))  # all anomalous
    @example(([1], 0))  # length 1
    # alpha=2 fills the gap 1..2 in trial 0, alpha=3 in trial 2 (checked
    # below), so alarms span a whole gap between two events
    @example(([1, 0, 0, 1], 1))
    def test_hits_and_f1_equal_score(self, layout):
        values, seed = layout
        labels = LabelSeries(values)
        # every example runs alpha = 0 and alpha = T too
        for alpha in range(len(values) + 1):
            trials = random_flag_trials(labels, alpha, TRIALS_PER_ALPHA, seed)
            for i in range(TRIALS_PER_ALPHA):
                preds = run_attack(labels, alpha, trial_seed(seed, i))
                assert trials.hits[i] == point_confusion(labels, preds).tp
                for p in Protocol:
                    assert trials.f1_by_protocol[p][i] == score(
                        labels, preds, p
                    ).f1

    def test_gap_filling_example_fills_the_gap(self):
        labels = LabelSeries([1, 0, 0, 1])
        for alpha, trial in ((2, 0), (3, 2)):
            preds = run_attack(labels, alpha, trial_seed(1, trial))
            assert preds.values[1:3].tolist() == [1, 1]

    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(attacks(), st.integers(min_value=1, max_value=5))
    @example(([0, 1, 1, 0, 0, 1], 0, 3), 1)
    def test_block_size_changes_no_trial(self, attack, rows):
        values, seed, alpha = attack
        labels = LabelSeries(values)
        trials = 2 * 5 + 1  # a partial last block for every rows value
        whole = random_flag_trials(labels, alpha, trials, seed)
        with mock.patch.object(adversary, "_BLOCK_ALARMS", rows * max(alpha, 1)):
            blocked = random_flag_trials(labels, alpha, trials, seed)
        assert np.array_equal(blocked.hits, whole.hits)
        for p in Protocol:
            assert np.array_equal(
                blocked.f1_by_protocol[p], whole.f1_by_protocol[p]
            )

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
            for i in range(40):
                preds = run_attack(labels, 3, trial_seed(1, i))
                for p in Protocol:
                    assert trials.f1_by_protocol[p][i] == score(
                        labels, preds, p
                    ).f1
