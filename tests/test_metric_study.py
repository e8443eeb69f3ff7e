"""Expected-count F1 study: anchors, conventions and the ordering property."""

import numpy as np
import pytest

from tsadeval.metric_study import (
    DatasetShape,
    DetectorSpec,
    default_far_grid,
    expected_counts,
    expected_f1,
    f1_far_table,
)


class TestSpecs:
    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(recall=1.2, far=0.0)
        with pytest.raises(ValueError):
            DetectorSpec(recall=0.5, far=-0.1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DatasetShape(n_normal=-1, n_anomalous=5)
        with pytest.raises(ValueError):
            DatasetShape(n_normal=0, n_anomalous=0)

    def test_contamination(self):
        assert DatasetShape(9000, 1000).contamination_rate == pytest.approx(
            0.1
        )


class TestExpectedF1:
    def test_counts_are_fractional(self):
        tp, fp, fn = expected_counts(
            DetectorSpec(recall=0.5, far=0.25), DatasetShape(10, 3)
        )
        assert (tp, fp, fn) == (1.5, 2.5, 1.5)

    def test_small_contamination_anchor(self):
        _, _, f1 = expected_f1(
            DetectorSpec(recall=0.99, far=0.01), DatasetShape(10000, 100)
        )
        assert f1 == pytest.approx(198 / 299, abs=1e-12)

    def test_mid_contamination_anchor(self):
        _, _, f1 = expected_f1(
            DetectorSpec(recall=0.99, far=0.01), DatasetShape(10000, 1000)
        )
        assert f1 == pytest.approx(18 / 19, abs=1e-12)

    def test_no_anomalies_scores_zero(self):
        assert expected_f1(
            DetectorSpec(recall=0.9, far=0.1), DatasetShape(100, 0)
        ) == (0.0, 0.0, 0.0)

    def test_far_zero_gives_perfect_precision(self):
        precision, recall, f1 = expected_f1(
            DetectorSpec(recall=0.8, far=0.0), DatasetShape(1000, 100)
        )
        assert precision == 1.0
        assert recall == pytest.approx(0.8)
        assert f1 == pytest.approx(2 * 0.8 / 1.8, abs=1e-12)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_far_grid()
        assert grid.shape == (50,)
        assert grid[0] == pytest.approx(0.001, abs=1e-15)
        assert grid[-1] == pytest.approx(0.2, abs=1e-15)
        assert np.all(np.diff(grid) > 0)

    def test_grid_is_logarithmic(self):
        grid = default_far_grid()
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_far_grid(low=0.0)
        with pytest.raises(ValueError):
            default_far_grid(low=0.2, high=0.1)
        with pytest.raises(ValueError):
            default_far_grid(points=1)


class TestTable:
    SHAPES = (
        DatasetShape(10000, 5000),
        DatasetShape(10000, 1000),
        DatasetShape(10000, 100),
    )

    def test_table_matches_pointwise_calls(self):
        grid = default_far_grid(points=10)
        table = f1_far_table(0.99, grid, self.SHAPES)
        assert table.shape == (10, 3)
        for i, far in enumerate(grid):
            det = DetectorSpec(recall=0.99, far=float(far))
            for j, shape in enumerate(self.SHAPES):
                assert table[i, j] == expected_f1(det, shape)[2]

    @pytest.mark.parametrize(
        "recall, grid",
        [(1.2, [0.1]), (-0.1, [0.1]), (0.9, [0.1, 1.5]), (0.9, [-0.1]),
         (0.9, [float("nan")])],
    )
    def test_out_of_range_rejected(self, recall, grid):
        with pytest.raises(ValueError, match="outside"):
            f1_far_table(recall, np.array(grid), self.SHAPES)

    def test_contamination_ordering_strict(self):
        table = f1_far_table(0.99, default_far_grid(), self.SHAPES)
        assert np.all(table[:, 0] > table[:, 1])
        assert np.all(table[:, 1] > table[:, 2])

    def test_f1_decreases_with_far(self):
        table = f1_far_table(0.99, default_far_grid(), self.SHAPES)
        assert np.all(np.diff(table, axis=0) < 0)
