"""Running mean, distance-to-target error and landing scatter."""

import numpy as np
import pytest

from ttreturn.metrics import MetricsState, running_metrics


class TestRunningMetrics:
    def test_single_point(self):
        r_bar, eps, sigma = running_metrics([[1.0, 2.0]], [1.0, 1.0])
        np.testing.assert_array_equal(r_bar, [1.0, 2.0])
        assert eps == pytest.approx(1.0)
        assert sigma == 0.0

    def test_two_point_symmetry(self):
        # mean halfway, scatter is the common distance to the mean
        pts = [[0.0, 0.0], [0.2, 0.0]]
        r_bar, eps, sigma = running_metrics(pts, [0.1, 0.0])
        np.testing.assert_allclose(r_bar, [0.1, 0.0])
        assert eps == pytest.approx(0.0, abs=1e-15)
        assert sigma == pytest.approx(0.1)

    def test_square_corners(self):
        pts = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
        r_bar, eps, sigma = running_metrics(pts, [3.0, 4.0])
        np.testing.assert_allclose(r_bar, [0.0, 0.0], atol=1e-15)
        assert eps == pytest.approx(5.0)
        assert sigma == pytest.approx(np.sqrt(2.0))

    def test_population_weighting(self):
        # 1/n weighting, not 1/(n-1)
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        _, _, sigma = running_metrics(pts, [0.0, 0.0])
        assert sigma == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_translation_invariance_of_sigma(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 2))
        _, _, s1 = running_metrics(pts, [0.0, 0.0])
        _, _, s2 = running_metrics(pts + np.array([3.0, -7.0]), [0.0, 0.0])
        assert s2 == pytest.approx(s1, rel=1e-12)

    def test_gaussian_scatter_estimate(self):
        # isotropic gaussian with per-axis std 0.25 has scatter 0.25*sqrt(2)
        rng = np.random.default_rng(1)
        pts = rng.normal(0.0, 0.25, size=(20000, 2))
        _, _, sigma = running_metrics(pts, [0.0, 0.0])
        assert sigma == pytest.approx(0.25 * np.sqrt(2.0), rel=0.1)


class TestMetricsState:
    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(2)
        target = np.array([0.5, -0.5])
        state = MetricsState(target)
        pts = rng.normal(size=(500, 2))
        for i, p in enumerate(pts):
            r_bar, eps, sigma = state.update(p)
            ref = running_metrics(list(pts[: i + 1]), target)
            np.testing.assert_array_equal(r_bar, ref[0])
            assert eps == ref[1]
            assert sigma == ref[2]
        assert state.count == 500
