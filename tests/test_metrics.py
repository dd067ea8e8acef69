"""Running mean, distance-to-target error and landing scatter."""

import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ttreturn.errors import NonFiniteStep
from ttreturn.metrics import MetricsState


def running_metrics(points, target) -> tuple[np.ndarray, float, float]:
    """Oracle: mean landing point, distance of the mean to the target, and the
    population standard deviation of the landing points (1/i weighting)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    r_bar = pts.mean(axis=0)
    dx, dy = (target - r_bar).tolist()
    eps = float(np.sqrt(dx * dx + dy * dy))
    sigma = float(np.sqrt(np.mean(np.sum((pts - r_bar) ** 2, axis=1))))
    return r_bar, eps, sigma


def fed(points, target) -> list[tuple[np.ndarray, float, float]]:
    """Every update of a MetricsState fed the points one by one."""
    state = MetricsState(target)
    return [state.update(*p) for p in np.asarray(points, dtype=float).tolist()]


def both(points, target) -> list[tuple[np.ndarray, float, float]]:
    """The oracle's metrics of all the points, and the accumulator's after the last one."""
    return [running_metrics(points, target), fed(points, target)[-1]]


class TestRunningMetrics:
    """Each case holds for the oracle and for MetricsState fed point by point."""

    def test_single_point(self):
        for r_bar, eps, sigma in both([[1.0, 2.0]], [1.0, 1.0]):
            np.testing.assert_array_equal(r_bar, [1.0, 2.0])
            assert eps == pytest.approx(1.0)
            assert sigma == 0.0

    def test_two_point_symmetry(self):
        # mean halfway, scatter is the common distance to the mean
        pts = [[0.0, 0.0], [0.2, 0.0]]
        for r_bar, eps, sigma in both(pts, [0.1, 0.0]):
            np.testing.assert_allclose(r_bar, [0.1, 0.0])
            assert eps == pytest.approx(0.0, abs=1e-15)
            assert sigma == pytest.approx(0.1)

    def test_square_corners(self):
        pts = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
        for r_bar, eps, sigma in both(pts, [3.0, 4.0]):
            np.testing.assert_allclose(r_bar, [0.0, 0.0], atol=1e-15)
            assert eps == pytest.approx(5.0)
            assert sigma == pytest.approx(np.sqrt(2.0))

    def test_population_weighting(self):
        # 1/n weighting, not 1/(n-1)
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        for _, _, sigma in both(pts, [0.0, 0.0]):
            assert sigma == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_translation_invariance_of_sigma(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 2))
        for (_, _, s1), (_, _, s2) in zip(both(pts, [0.0, 0.0]), both(pts + np.array([3.0, -7.0]), [0.0, 0.0])):
            assert s2 == pytest.approx(s1, rel=1e-12)

    def test_gaussian_scatter_estimate(self):
        # isotropic gaussian with per-axis std 0.25 has scatter 0.25*sqrt(2)
        rng = np.random.default_rng(1)
        pts = rng.normal(0.0, 0.25, size=(20000, 2))
        for _, _, sigma in both(pts, [0.0, 0.0]):
            assert sigma == pytest.approx(0.25 * np.sqrt(2.0), rel=0.1)


def assert_matches_oracle(points, target, got, rtol: float, atol: float) -> None:
    """got, the update after the last of the points, agrees with the oracle over all of them."""
    r_bar, eps, sigma = running_metrics(points, target)
    np.testing.assert_allclose(got[0], r_bar, rtol=rtol, atol=atol)
    assert got[1] == pytest.approx(eps, rel=rtol, abs=atol)
    assert got[2] == pytest.approx(sigma, rel=rtol, abs=atol)


class TestMetricsState:
    def test_incremental_matches_batch(self):
        # Welford's update rounds differently from the oracle's two passes, so the
        # bits differ; the mean can pass near zero, hence a 1e-15 m floor
        rng = np.random.default_rng(2)
        target = np.array([0.5, -0.5])
        pts = rng.normal(size=(500, 2))
        state = MetricsState(target)
        for i, p in enumerate(pts.tolist()):
            assert_matches_oracle(pts[: i + 1], target, state.update(*p), rtol=1e-12, atol=1e-15)
        assert state.count == 500

    def test_far_offset_keeps_the_scatter(self):
        # 1 mm of scatter 1 km from the origin: a sum-of-squares update, E[x^2] - E[x]^2,
        # cancels 1e6 m^2 terms down to 1e-6 m^2 and loses the scatter's digits
        rng = np.random.default_rng(4)
        pts = 1e3 + rng.normal(0.0, 1e-3, size=(1000, 2))
        _, _, sigma = running_metrics(pts, [0.0, 0.0])
        xs, ys = pts.T.tolist()
        n = len(pts)
        sum_of_squares = math.sqrt(math.fsum(x * x + y * y for x, y in zip(xs, ys)) / n
                                   - (sum(xs) / n) ** 2 - (sum(ys) / n) ** 2)
        assert sum_of_squares != pytest.approx(sigma, rel=1e-6)
        assert fed(pts, [0.0, 0.0])[-1][2] == pytest.approx(sigma, rel=1e-9)

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (1e308, -1e308)],
                             ids=["nan", "inf", "overflowing-square"])
    def test_non_finite_metric_raises(self, point):
        state = MetricsState((0.0, 0.0))
        state.update(0.0, 0.0)
        with pytest.raises(NonFiniteStep, match="^landing 2: the running mean or scatter is not finite"):
            state.update(*point)

    def test_overflowing_deviation_raises_no_domain_error(self):
        # the mean's step overflows to inf and the squared deviation to -inf: no sqrt of a negative
        state = MetricsState((-1.5e308, 0.0))
        state.update(-1.5e308, 0.0)
        with pytest.raises(NonFiniteStep):
            state.update(1.5e308, 0.0)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_update_matches_the_oracle_property(self, data):
        coordinate = st.floats(-1e3, 1e3)
        target = data.draw(st.tuples(coordinate, coordinate))
        pts = data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
        # both sides round at the scale of the largest coordinate, so near-zero results agree absolutely
        atol = 1e-12 * max(1.0, *map(abs, target), *(abs(c) for p in pts for c in p))
        for i, got in enumerate(fed(pts, target)):
            assert_matches_oracle(pts[: i + 1], target, got, rtol=1e-9, atol=atol)
