"""PCA baseline: fitting, scoring, persistence and the threshold sweep."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsadeval import protocols
from tsadeval.data_io import (
    AnomalySignal,
    MvtsFrame,
    SyntheticSpec,
    generate_train_test,
)
from tsadeval.metrics import LabelSeries, PredictionSeries
from tsadeval.pca_baseline import (
    AnomalyScoreSeries,
    PcaConfig,
    ScoredModel,
    fit,
    predictions_at_threshold,
    score_frame,
    sweep_threshold,
)
from tsadeval.protocols import (
    Protocol,
    _prediction_counts,
    _rates,
    _sweep_counts,
    score,
)


def synthetic_pair(seed=7, signal=AnomalySignal.MEAN_SHIFT):
    spec = SyntheticSpec(
        total_points=4000,
        event_lengths=(80, 120, 60),
        n_channels=8,
        anomaly_signal=signal,
        seed=seed,
    )
    return generate_train_test(spec, train_points=3000)


def random_frame(rng, rows=500, cols=6):
    correlated = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
    return MvtsFrame(values=correlated + 0.01 * rng.standard_normal((rows, cols)))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variance_target=0.0),
            dict(variance_target=1.1),
            dict(clip_quantiles=(0.5, 0.5)),
            dict(clip_quantiles=(-0.1, 0.9)),
            dict(clip_quantiles=(0.1, 1.2)),
            dict(smooth_window=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PcaConfig(**kwargs)

    def test_defaults(self):
        config = PcaConfig()
        assert config.variance_target == 0.9
        assert config.clip_quantiles == (0.001, 0.999)
        assert config.smooth_window == 5


class TestFit:
    def test_component_count_respects_variance_target(self):
        rng = np.random.default_rng(0)
        train = random_frame(rng)
        model = fit(train, PcaConfig(variance_target=0.9, smooth_window=1))
        # independent check on the model's own preprocessing output
        scaled = (train.values - model.center) / model.spread
        clipped = np.clip(scaled, model.clip_low, model.clip_high)
        eigvals = np.linalg.eigvalsh(np.cov(clipped, rowvar=False))[::-1]
        ratios = np.cumsum(eigvals) / eigvals.sum()
        k = model.n_components
        assert ratios[k - 1] >= 0.9 - 1e-9
        if k > 1:
            assert ratios[k - 2] < 0.9

    def test_two_factor_data_needs_two_components(self):
        rng = np.random.default_rng(1)
        model = fit(random_frame(rng), PcaConfig(variance_target=0.99))
        assert model.n_components <= 3

    def test_zero_iqr_channel_warns(self):
        values = np.column_stack(
            [np.ones(100), np.linspace(0.0, 1.0, 100)]
        )
        with pytest.warns(UserWarning, match="zero IQR"):
            model = fit(MvtsFrame(values=values))
        assert model.spread[0] == 1.0

    def test_constant_frame_keeps_one_component(self):
        # no variance at all: the component count falls back to 1
        frame = MvtsFrame(values=np.full((50, 3), 2.0))
        with pytest.warns(UserWarning, match=r"^3 channel\(s\) have zero IQR"):
            model = fit(frame)
        assert model.n_components == 1
        assert not score_frame(model, frame).scores.any()

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="training rows"):
            fit(MvtsFrame(values=np.zeros((1, 3))))

    def test_single_channel(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((200, 1))
        model = fit(MvtsFrame(values=values))
        assert model.n_components == 1

    def test_clipping_tames_training_outliers(self):
        rng = np.random.default_rng(3)
        base = random_frame(rng, rows=2000, cols=4)
        spiked = base.values.copy()
        spiked[500] += 100.0
        clean = fit(base, PcaConfig(smooth_window=1))
        dirty = fit(MvtsFrame(values=spiked), PcaConfig(smooth_window=1))
        # one huge training row must not tilt the principal subspace;
        # with clipping disabled the spike direction dominates the basis
        assert dirty.n_components == clean.n_components
        p_clean = clean.basis @ clean.basis.T
        p_dirty = dirty.basis @ dirty.basis.T
        assert np.linalg.norm(p_clean - p_dirty) < 0.3
        unclipped = fit(
            MvtsFrame(values=spiked),
            PcaConfig(clip_quantiles=(0.0, 1.0), smooth_window=1),
        )
        p_unclipped = unclipped.basis @ unclipped.basis.T
        assert np.linalg.norm(p_clean - p_unclipped) > 0.5


class TestScore:
    def test_full_rank_reconstruction_is_exact(self):
        rng = np.random.default_rng(4)
        train = random_frame(rng)
        model = fit(train, PcaConfig(variance_target=1.0, smooth_window=1))
        assert model.n_components == train.n_channels
        residuals = score_frame(model, train).scores
        assert residuals.max() <= 1e-8

    def test_channel_mismatch(self):
        rng = np.random.default_rng(5)
        model = fit(random_frame(rng, cols=4))
        with pytest.raises(ValueError, match="channels"):
            score_frame(model, random_frame(rng, cols=5))

    def test_scores_deterministic(self):
        rng = np.random.default_rng(6)
        train = random_frame(rng)
        test = random_frame(rng)
        a = score_frame(fit(train), test).scores
        b = score_frame(fit(train), test).scores
        assert np.array_equal(a, b)

    def test_smoothing_is_causal(self):
        rng = np.random.default_rng(7)
        train = random_frame(rng, rows=300)
        base = random_frame(rng, rows=100)
        changed_values = base.values.copy()
        changed_values[60:] += 50.0
        changed = MvtsFrame(values=changed_values)
        model = fit(train)
        a = score_frame(model, base).scores
        b = score_frame(model, changed).scores
        assert np.array_equal(a[:60], b[:60])
        assert not np.array_equal(a[60:], b[60:])

    def test_smoothing_window_math(self):
        rng = np.random.default_rng(8)
        train = random_frame(rng, rows=300)
        model5 = fit(train, PcaConfig(smooth_window=5))
        model1 = fit(train, PcaConfig(smooth_window=1))
        test = random_frame(rng, rows=50)
        raw = score_frame(model1, test).scores
        smooth = score_frame(model5, test).scores
        padded = np.concatenate([np.zeros(4), raw])
        expected = np.array(
            [padded[i : i + 5].mean() for i in range(50)]
        )
        assert np.allclose(smooth, expected, atol=1e-12)

    def test_score_series_keeps_a_read_only_copy(self):
        scores = np.array([0.0, 1.5, 2.0])
        series = AnomalyScoreSeries(scores)
        assert scores.flags.writeable
        assert not series.scores.flags.writeable
        scores[0] = 9.0
        assert series.scores[0] == 0.0

    def test_score_series_validation(self):
        with pytest.raises(ValueError):
            AnomalyScoreSeries(np.array([-0.1, 0.2]))
        with pytest.raises(ValueError):
            AnomalyScoreSeries(np.array([np.nan]))
        with pytest.raises(ValueError):
            AnomalyScoreSeries(np.array([]))


class TestPersistence:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        train = random_frame(rng)
        model = fit(train)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ScoredModel.load(path)
        assert loaded == model
        for name in ("center", "spread", "clip_low", "clip_high", "mean", "basis"):
            assert np.array_equal(getattr(model, name), getattr(loaded, name))
        assert loaded.smooth_window == model.smooth_window
        test = random_frame(rng)
        assert np.array_equal(
            score_frame(model, test).scores, score_frame(loaded, test).scores
        )

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "weird.npz"
        np.savez(path, format=np.array("something-else"), x=np.zeros(3))
        with pytest.raises(ValueError, match="unknown model format"):
            ScoredModel.load(path)

    @pytest.mark.parametrize(
        "stored, missing",
        [
            (
                {"x": np.zeros(3)},
                "basis center clip_high clip_low format mean smooth_window "
                "spread",
            ),
            (
                {"format": np.array("tsadeval-pca-v1"), "center": np.zeros(2)},
                "basis clip_high clip_low mean smooth_window spread",
            ),
        ],
    )
    def test_foreign_file_names_missing_keys(self, tmp_path, stored, missing):
        path = tmp_path / "foreign.npz"
        np.savez(path, **stored)
        message = f"{path}: missing keys {missing.split()}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoredModel.load(path)

    @pytest.mark.parametrize(
        "name, write",
        [
            ("model.csv", lambda path: path.write_text("score\n0.5\n")),
            ("model.npy", lambda path: np.save(path, np.zeros(3))),
            ("model.npz", lambda path: path.write_bytes(b"")),
            ("cut.npz", lambda path: path.write_bytes(b"PK\x03\x04cut")),
        ],
    )
    def test_file_that_is_no_archive_is_named(self, tmp_path, name, write):
        path = tmp_path / name
        write(path)
        message = f"{path}: not a model archive (.npz)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoredModel.load(path)

    def test_non_finite_archive_is_refused_on_load(self, tmp_path):
        path = tmp_path / "model.npz"
        fit(random_frame(np.random.default_rng(9))).save(path)
        with np.load(path) as bundle:
            arrays = dict(bundle)
        arrays["mean"][1] = np.nan
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="^mean must be finite$"):
            ScoredModel.load(path)

    def test_fractional_window_is_refused_on_load(self, tmp_path):
        # a stored window is read as it was written, never truncated
        path = tmp_path / "model.npz"
        fit(random_frame(np.random.default_rng(9))).save(path)
        with np.load(path) as bundle:
            arrays = dict(bundle)
        np.savez(path, **{**arrays, "smooth_window": np.array(2.5)})
        with pytest.raises(
            ValueError, match=r"^smooth_window must be an integer, got 2\.5$"
        ):
            ScoredModel.load(path)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(center=np.zeros((3, 1))), "^center must be 1-D$"),
            (dict(basis=np.ones(3)), "^basis must be 2-D$"),
            (
                dict(mean=np.zeros(2)),
                "^per-channel arrays disagree on channel count$",
            ),
            (
                dict(basis=np.eye(4)[:, :2]),
                "^per-channel arrays disagree on channel count$",
            ),
            # an infinite spread would scale its channel to 0 everywhere
            (dict(spread=[np.inf, 1.0, 1.0]), "^spread must be finite$"),
            (dict(center=[0.0, np.nan, 0.0]), "^center must be finite$"),
            (dict(clip_low=[-np.inf, -1, -1]), "^clip_low must be finite$"),
            (dict(clip_high=[1.0, 1.0, np.inf]), "^clip_high must be finite$"),
            (dict(mean=[np.nan, 0.0, 0.0]), "^mean must be finite$"),
            (
                dict(basis=np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]])),
                "^basis must be finite$",
            ),
            (
                dict(spread=[1.0, 0.0, 1.0]),
                r"^smallest spread must be > 0, got 0\.0$",
            ),
            (
                dict(spread=[1.0, 1.0, -2.0]),
                r"^smallest spread must be > 0, got -2\.0$",
            ),
            # np.clip would return clip_high in the crossed channel
            (
                dict(clip_low=[-1.0, 2.0, -1.0]),
                r"^smallest clip_high - clip_low must be >= 0, got -1\.0$",
            ),
        ],
    )
    def test_model_shapes_are_refused(self, changes, message):
        fields = dict(
            center=np.zeros(3), spread=np.ones(3), clip_low=-np.ones(3),
            clip_high=np.ones(3), mean=np.zeros(3), basis=np.eye(3)[:, :2],
            smooth_window=1,
        )
        with pytest.raises(ValueError, match=message):
            ScoredModel(**{**fields, **changes})

    def test_model_keeps_read_only_copies(self):
        model = fit(random_frame(np.random.default_rng(4)))
        names = ("center", "spread", "clip_low", "clip_high", "mean", "basis")
        given = {name: np.array(getattr(model, name)) for name in names}
        built = ScoredModel(**given, smooth_window=model.smooth_window)
        for name, arr in given.items():
            assert arr.flags.writeable
            assert not getattr(built, name).flags.writeable
            arr[...] = 7.0
            assert np.array_equal(getattr(built, name), getattr(model, name))

    def test_model_validation(self):
        eye = np.eye(3)
        with pytest.raises(ValueError, match="orthonormal"):
            ScoredModel(
                center=np.zeros(3),
                spread=np.ones(3),
                clip_low=-np.ones(3),
                clip_high=np.ones(3),
                mean=np.zeros(3),
                basis=eye[:, :2] * 2.0,
                smooth_window=1,
            )


class TestSweep:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            scores = AnomalyScoreSeries(rng.random(n).round(2))
            labels = LabelSeries((rng.random(n) < 0.3).astype(np.int8))
            threshold, report = sweep_threshold(scores, labels)
            candidates = np.concatenate(
                (np.unique(scores.scores), [np.inf])
            )
            best = max(
                score(
                    labels,
                    predictions_at_threshold(scores, float(t)),
                    Protocol.POINT_WISE,
                ).f1
                for t in candidates
            )
            assert report.f1 == pytest.approx(best, abs=1e-12)

    def test_tie_prefers_larger_threshold(self):
        # no anomalous point: every threshold scores 0, so the sweep must
        # settle on the all-negative prediction at +inf
        scores = AnomalyScoreSeries(np.array([0.3, 0.7]))
        labels = LabelSeries([0, 0])
        threshold, report = sweep_threshold(scores, labels)
        assert threshold == np.inf
        assert report.f1 == 0.0

    def test_perfect_separation(self):
        scores = AnomalyScoreSeries(np.array([0.1, 0.2, 0.9, 0.8, 0.1]))
        labels = LabelSeries([0, 0, 1, 1, 0])
        threshold, report = sweep_threshold(scores, labels)
        assert threshold == pytest.approx(0.8)
        assert report.f1 == 1.0

    def test_event_wise_sweep(self):
        train, test = synthetic_pair()
        model = fit(train)
        scores = score_frame(model, test)
        threshold, report = sweep_threshold(
            scores, test.labels, Protocol.EVENT_WISE
        )
        assert report.protocol is Protocol.EVENT_WISE
        assert report.f1 > 0.8

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sweep_threshold(
                AnomalyScoreSeries(np.array([1.0])), LabelSeries([0, 1])
            )


def brute_force_sweep(scores, labels, protocol):
    """First maximum of score() over the candidates walked from high to low."""
    candidates = np.concatenate((np.unique(scores.scores), [np.inf]))
    best_threshold, best_report = None, None
    for threshold in candidates[::-1]:
        report = score(
            labels, predictions_at_threshold(scores, float(threshold)), protocol
        )
        if best_report is None or report.f1 > best_report.f1:
            best_threshold, best_report = float(threshold), report
    return best_threshold, best_report


@st.composite
def scored_layouts(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    flags = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    labels = draw(st.one_of(flags, st.just([0] * n), st.just([1] * n)))
    # few distinct values give ties; floats give one candidate per point
    value = st.one_of(
        st.integers(0, 3).map(float), st.floats(0.0, 1e6, allow_nan=False)
    )
    tied = draw(value)
    scores = draw(
        st.one_of(
            st.lists(value, min_size=n, max_size=n),
            st.just([tied] * n),
            st.just([0.0] * n),
        )
    )
    return scores, labels


class TestSweepAgainstBruteForce:
    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=300, deadline=None)
    @given(scored_layouts())
    @example(([0.5], [1]))
    @example(([0.5], [0]))
    @example(([0.1, 0.9, 0.3], [0, 0, 0]))
    @example(([0.1, 0.9, 0.3], [1, 1, 1]))
    @example(([0.4, 0.4, 0.4, 0.4], [0, 1, 1, 0]))
    @example(([0.0, 0.0, 0.0], [1, 0, 1]))
    @example(([0.9, 0.2, 0.7, 0.7, 0.1, 0.8], [1, 0, 0, 0, 0, 1]))
    @example(([0.9, 0.8, 0.6, 0.5, 0.7, 0.9], [1, 1, 0, 0, 1, 1]))
    def test_threshold_and_report_equal_per_candidate_scoring(self, layout):
        values, label_values = layout
        scores = AnomalyScoreSeries(np.array(values))
        labels = LabelSeries(label_values)
        thresholds, counts = _sweep_counts(scores.scores, labels)
        for protocol in Protocol:
            assert sweep_threshold(scores, labels, protocol) == (
                brute_force_sweep(scores, labels, protocol)
            )
            # not only the winner: the F1 at every candidate is score()'s
            assert _rates(protocol, labels, **counts)[2].tolist() == [
                score(labels, predictions_at_threshold(scores, t), protocol).f1
                for t in thresholds.tolist()
            ]
        # F1 alone misses a wrong fp_e whenever tp_e is 0, so every count
        # at every candidate is checked against the prediction's
        for i, t in enumerate(thresholds.tolist()):
            preds = predictions_at_threshold(scores, t)
            expected = _prediction_counts(labels, preds)
            assert {k: v[i] for k, v in counts.items()} == expected


class TestSweepReport:
    @pytest.mark.filterwarnings("ignore:false_alarm_rate over")
    @settings(max_examples=200, deadline=None)
    @given(scored_layouts())
    @example(([0.5], [1]))
    @example(([0.5], [0]))
    @example(([0.1, 0.9, 0.3], [0, 0, 0]))  # +inf wins
    @example(([0.1, 0.9, 0.3], [1, 1, 1]))
    @example(([0.4, 0.4, 0.4, 0.4], [0, 1, 1, 0]))
    @example(([0.7, 0.2, 0.7, 0.2, 0.7], [1, 0, 0, 0, 1]))
    def test_report_is_score_of_the_winning_prediction(self, layout):
        # the report built from the sweep's counts is score()'s report of
        # the prediction at the returned threshold, +inf and ties included;
        # reprs are equal only if every float has the same bits and every
        # count is a Python int
        values, label_values = layout
        scores = AnomalyScoreSeries(np.array(values))
        labels = LabelSeries(label_values)
        for protocol in Protocol:
            threshold, report = sweep_threshold(scores, labels, protocol)
            preds = predictions_at_threshold(scores, threshold)
            assert repr(report) == repr(score(labels, preds, protocol))


class TestSweepCost:
    @pytest.mark.parametrize("n", [1, 50, 5000])
    def test_one_score_call_per_sweep(self, n, monkeypatch):
        # the reports come from the sweep's own counts: nothing is
        # binarized or counted again, by the sweep or by evaluate
        calls = []

        def counted(fn):
            def call(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return call

        # patched where the sweep and evaluate would look them up
        for name in (
            "score", "predictions_at_threshold", "_prediction_counts",
            "_sweep_counts",
        ):
            fn = getattr(protocols, name)
            monkeypatch.setattr(protocols, name, counted(fn))
        rng = np.random.default_rng(n)
        scores = AnomalyScoreSeries(rng.random(n))
        labels = LabelSeries((rng.random(n) < 0.2).astype(np.int8))
        for protocol in Protocol:
            calls.clear()
            sweep_threshold(scores, labels, protocol)
            assert calls == ["_sweep_counts"]
        calls.clear()
        protocols.evaluate(labels, scores)
        assert calls == ["_sweep_counts"]

    def test_all_anomalous_warns_once_per_sweep(self):
        scores = AnomalyScoreSeries(np.linspace(0.0, 1.0, 40))
        labels = LabelSeries(np.ones(40, dtype=np.int8))
        for protocol in Protocol:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sweep_threshold(scores, labels, protocol)
            messages = [str(w.message) for w in caught]
            assert sum("no normal points" in m for m in messages) == 1


class TestEndToEnd:
    @pytest.mark.parametrize("signal", list(AnomalySignal))
    def test_detects_synthetic_events(self, signal):
        train, test = synthetic_pair(seed=21, signal=signal)
        model = fit(train)
        scores = score_frame(model, test)
        _, report = sweep_threshold(scores, test.labels, Protocol.POINT_WISE)
        assert report.f1 > 0.5

    def test_mean_shift_event_wise_strong(self):
        train, test = synthetic_pair(seed=22)
        model = fit(train)
        scores = score_frame(model, test)
        _, report = sweep_threshold(scores, test.labels, Protocol.EVENT_WISE)
        assert report.f1 > 0.9
