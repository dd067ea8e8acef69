"""Simulated environment: launches, interceptions, noise, scatter estimate."""

import copy

import numpy as np
import pytest

from ttreturn.arm import InterceptionPolicy
from ttreturn.ballistics import FlightParams, euler_flight
from ttreturn.env import (
    EnvConfig,
    LauncherConfig,
    TABLE_CENTER,
    TABLE_SIZE,
    estimate_variance,
    intercept,
    launch,
)
from ttreturn.errors import InfeasibleRegion
from ttreturn.greybox import GreyboxParams, predict_landing
from ttreturn.impact import ImpactParams


def on_table(point: np.ndarray) -> bool:
    """Test-local: whether a horizontal point lies within the table footprint."""
    return bool(np.all(np.abs(np.asarray(point)[:2] - TABLE_CENTER) <= TABLE_SIZE / 2.0))


def states(traj):
    """(n, 6) state array of a sampled trajectory."""
    return np.array(traj.rows).reshape(-1, 6)


class TestOnTable:
    def test_center_and_corners(self):
        assert on_table(TABLE_CENTER)
        assert on_table(TABLE_CENTER + TABLE_SIZE / 2.0)
        assert not on_table(TABLE_CENTER + TABLE_SIZE / 2.0 + 0.01)

    def test_far_point(self):
        assert not on_table(np.array([10.0, 10.0]))


class TestLaunch:
    def test_deterministic_given_seed(self, env_cfg):
        a = launch(env_cfg.launcher, env_cfg.truth_flight, np.random.default_rng(3))
        b = launch(env_cfg.launcher, env_cfg.truth_flight, np.random.default_rng(3))
        assert np.array_equal(a.times, b.times)
        assert a.rows == b.rows

    def test_zero_jitter_starts_at_nominal(self, noiseless_env_cfg):
        traj = launch(
            noiseless_env_cfg.launcher, noiseless_env_cfg.truth_flight, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(
            states(traj)[0], noiseless_env_cfg.launcher.nominal_state
        )

    def test_uniform_sample_spacing(self, env_cfg):
        traj = launch(env_cfg.launcher, env_cfg.truth_flight, np.random.default_rng(1))
        np.testing.assert_allclose(
            np.diff(traj.times), env_cfg.launcher.sample_dt, atol=1e-12
        )

    def test_jitter_spreads_initial_state(self, env_cfg):
        starts = np.array(
            [
                states(launch(env_cfg.launcher, env_cfg.truth_flight, np.random.default_rng(s)))[0]
                for s in range(200)
            ]
        )
        emp = starts.std(axis=0)
        np.testing.assert_allclose(emp, env_cfg.launcher.jitter_std, rtol=0.25)

    def test_trajectory_descends_through_workspace(self, noiseless_env_cfg):
        traj = launch(
            noiseless_env_cfg.launcher, noiseless_env_cfg.truth_flight, np.random.default_rng(0)
        )
        # ball must pass through the reachable band around the arm base
        d = np.linalg.norm(states(traj)[:, :3] - noiseless_env_cfg.geom.base, axis=1)
        assert d.min() < 0.9


def reference_launch(cfg, flight, rng):
    """Test-local launch: one 6-state per sample, each a single euler_flight step."""
    jitter = rng.normal(0.0, 1.0, size=6) * cfg.jitter_std
    state = cfg.nominal_state + jitter
    times, rows, t = [0.0], [state], 0.0
    while t < 3.0:
        state = np.array(euler_flight(state.tolist(), flight, cfg.sample_dt, 1)[0])
        t += cfg.sample_dt
        times.append(t)
        rows.append(state)
        hit_table = state[2] <= flight.z_table and on_table(state)
        if hit_table or state[2] <= 0.0 or state[1] <= -1.2:
            break
    return np.array(times), np.array(rows)


class TestLaunchOracle:
    @pytest.mark.parametrize(
        "nominal,stop",
        [
            ((-0.15, 3.9, 1.10, 0.0, -8.3, 3.3), "y_stop"),
            ((-1.0, 3.9, 1.1, 0.0, -5.0, 1.0), "table"),
            ((2.0, 3.9, 1.1, 0.0, -3.0, 1.0), "floor"),
            ((-0.15, 3.9, 6.0, 0.0, -0.5, 20.0), "t_max"),
        ],
    )
    def test_matches_per_object_step_loop(self, env_cfg, nominal, stop):
        cfg = LauncherConfig(nominal_state=np.array(nominal))
        flight = env_cfg.truth_flight
        for seed in range(3):
            traj = launch(cfg, flight, np.random.default_rng(seed))
            times, ref = reference_launch(cfg, flight, np.random.default_rng(seed))
            assert len(traj) == len(times)
            assert np.array_equal(traj.times, times)
            assert np.max(np.abs(states(traj) - ref)) <= 1e-12
        last = states(traj)[-1]
        reached = {
            "y_stop": last[1] <= -1.2,
            "table": last[2] <= flight.z_table and on_table(last),
            "floor": last[2] <= 0.0,
            "t_max": traj.times[-1] >= 3.0,
        }
        assert [name for name, hit in reached.items() if hit] == [stop]


class TestIntercept:
    def test_noiseless_determinism(self, noiseless_env_cfg):
        phi = InterceptionPolicy(0.45, 0.2)
        r1, d1 = intercept(phi, noiseless_env_cfg, np.random.default_rng(4))
        r2, d2 = intercept(phi, noiseless_env_cfg, np.random.default_rng(4))
        assert np.array_equal(r1, r2)
        assert np.array_equal(r1, d1.noiseless_landing)
        assert d1.event.t_ic == d2.event.t_ic

    def test_noise_is_additive_with_stated_scale(self, env_cfg):
        cfg = copy.deepcopy(env_cfg)
        cfg.launcher.jitter_std = np.zeros(6)
        phi = InterceptionPolicy(0.45, 0.2)
        rng = np.random.default_rng(6)
        deltas = []
        for _ in range(1000):
            r, diag = intercept(phi, cfg, rng)
            deltas.append(r - diag.noiseless_landing)
        emp = np.array(deltas).std(axis=0)
        np.testing.assert_allclose(emp, cfg.landing_noise_std, rtol=0.15)
        assert abs(np.array(deltas).mean(axis=0)).max() < 0.03

    def test_matched_parameters_agree_with_predictor(self, noiseless_env_cfg):
        # when the hidden physics is set equal to the predictor's model, the
        # environment landing and the predicted landing must coincide to a few
        # millimeters (only the integration steps differ)
        cfg = copy.deepcopy(noiseless_env_cfg)
        params = GreyboxParams()
        cfg.truth_flight = FlightParams(k_drag=params.flight.k_drag, dt=cfg.truth_flight.dt)
        cfg.truth_impact = ImpactParams()
        phi = InterceptionPolicy(0.45, 0.2)
        r, diag = intercept(phi, cfg, np.random.default_rng(0))
        pred = predict_landing(phi, diag.incoming, params)
        assert np.linalg.norm(r - pred) < 5e-3

    def test_mismatched_parameters_stay_close(self, noiseless_env_cfg, greybox_params):
        # the deliberate model mismatch bends the landing by centimeters, not
        # by a table length
        for t1 in (0.35, 0.50, 0.65):
            for t4 in (0.05, 0.20, 0.35):
                phi = InterceptionPolicy(t1, t4)
                r, diag = intercept(phi, noiseless_env_cfg, np.random.default_rng(0))
                pred = predict_landing(phi, diag.incoming, greybox_params)
                gap = np.linalg.norm(r - pred)
                assert 0.0 < gap < 0.4


class TestEstimateVariance:
    def test_matches_configured_noise_scale(self, env_cfg):
        _, sigma = estimate_variance(
            InterceptionPolicy(0.45, 0.25), 200, env_cfg, np.random.default_rng(42)
        )
        assert 0.22 <= sigma <= 0.28

    def test_zero_noise_zero_scatter(self, noiseless_env_cfg):
        _, sigma = estimate_variance(
            InterceptionPolicy(0.45, 0.25), 20, noiseless_env_cfg, np.random.default_rng(0)
        )
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_scales_linearly_with_noise(self, env_cfg):
        cfg = copy.deepcopy(env_cfg)
        cfg.launcher.jitter_std = np.zeros(6)
        half = copy.deepcopy(cfg)
        half.landing_noise_std = cfg.landing_noise_std / 2.0
        _, s_full = estimate_variance(
            InterceptionPolicy(0.45, 0.25), 400, cfg, np.random.default_rng(9)
        )
        _, s_half = estimate_variance(
            InterceptionPolicy(0.45, 0.25), 400, half, np.random.default_rng(9)
        )
        assert s_half == pytest.approx(s_full / 2.0, rel=0.1)

    def test_infeasible_policy_raises(self, env_cfg):
        with pytest.raises(InfeasibleRegion):
            estimate_variance(
                InterceptionPolicy(-0.5, 0.0), 10, env_cfg, np.random.default_rng(0)
            )

    def test_rejects_too_few_trials(self, env_cfg):
        with pytest.raises(ValueError):
            estimate_variance(
                InterceptionPolicy(0.45, 0.25), 1, env_cfg, np.random.default_rng(0)
            )
