"""Interception geometry, racket orientation and racket velocity."""

from math import atan2, cos, pi, sin

import numpy as np
import pytest

from ttreturn.arm import (
    ArmGeometry,
    InterceptionPolicy,
    base_azimuth,
    forward_kinematics,
    interception_event,
    racket_rotation,
    racket_rotation_jacobian,
    racket_velocity,
)
from ttreturn.env import SampledTrajectory
from ttreturn.errors import NoCrossing, OutOfReach


def straight_trajectory(p0, v, n=200, dt=0.002):
    """Constant-velocity sampled trajectory."""
    times = np.arange(n) * dt
    v = np.asarray(v, dtype=float)
    pos = np.asarray(p0, dtype=float) + times[:, None] * v
    return SampledTrajectory(times=times, states=np.hstack([pos, np.tile(v, (n, 1))]))


class TestInterceptionEvent:
    def test_straight_path_crossing_time(self):
        # ball flying along -y at a fixed x offset sweeps the azimuth toward
        # -pi/2; the crossing point and time have a closed form
        geom = ArmGeometry()
        theta1 = -0.8
        traj = straight_trajectory([0.5, 2.0, 1.0], [0.0, -2.0, 0.0], n=600)
        ev = interception_event(traj, geom, theta1)
        y_star = 0.5 * np.tan(theta1 + pi / 2)
        t_star = (2.0 - y_star) / 2.0
        assert ev.t_ic == pytest.approx(t_star, abs=1e-3)
        assert ev.xi_minus.p[1] == pytest.approx(y_star, abs=2e-3)
        np.testing.assert_allclose(ev.racket_pos, ev.xi_minus.p, atol=1e-12)

    def test_cached_azimuth_follows_geometry(self, nominal_traj):
        # a SampledTrajectory caches its azimuths by the geometry's values;
        # every event must equal the one from a fresh, uncached trajectory
        traj = SampledTrajectory(times=nominal_traj.times, states=nominal_traj.states)

        def uncached(g):
            fresh = SampledTrajectory(times=nominal_traj.times, states=nominal_traj.states)
            return interception_event(fresh, g, 0.45)

        geom = ArmGeometry()
        shifted = ArmGeometry(base=np.array([0.05, -0.05, 0.8]))
        for g in (geom, shifted, geom):
            ev = interception_event(traj, g, 0.45)
            ref = uncached(g)
            assert ev.t_ic == ref.t_ic
            np.testing.assert_array_equal(ev.racket_pos, ref.racket_pos)
        geom.base[0] += 0.05  # an in-place change of the same object
        ev = interception_event(traj, geom, 0.45)
        assert ev.t_ic == uncached(geom).t_ic
        assert ev.t_ic != uncached(ArmGeometry()).t_ic

    def test_interpolated_crossing(self, nominal_traj, env_cfg):
        geom = env_cfg.geom
        theta1 = 0.45
        ev = interception_event(nominal_traj, geom, theta1)
        az = base_azimuth(ev.xi_minus.p[None, :], geom)[0]
        # azimuth is nonlinear in position, so linear state interpolation
        # leaves a small residual at the crossing
        assert az == pytest.approx(theta1, abs=1e-4)
        # dense re-sampling reference for the crossing time
        times = nominal_traj.times
        states = nominal_traj.states
        azs = base_azimuth(states[:, :3], geom) - theta1
        idx = np.nonzero((azs[:-1] <= 0) & (azs[1:] > 0))[0][0]
        u = -azs[idx] / (azs[idx + 1] - azs[idx])
        t_ref = times[idx] + u * (times[idx + 1] - times[idx])
        assert ev.t_ic == pytest.approx(t_ref, abs=1e-4)

    def test_monotone_in_theta1(self, nominal_traj, env_cfg):
        t_ics = [
            interception_event(nominal_traj, env_cfg.geom, t1).t_ic
            for t1 in (0.30, 0.40, 0.50, 0.60, 0.70)
        ]
        assert all(a < b for a, b in zip(t_ics, t_ics[1:]))

    def test_no_crossing(self, nominal_traj, env_cfg):
        with pytest.raises(NoCrossing):
            interception_event(nominal_traj, env_cfg.geom, -0.5)

    def test_out_of_reach(self):
        geom = ArmGeometry()
        traj = straight_trajectory([0.0, 3.0, 1.0], [0.0, -0.1, 0.0], n=10)
        with pytest.raises(OutOfReach):
            interception_event(traj, geom, 0.0)

    def test_full_extension_straightens_elbow(self):
        geom = ArmGeometry()
        dist = geom.l1 + geom.l2 - 0.01  # exactly at the allowed reach boundary
        traj = straight_trajectory([dist, 2.0, geom.base[2]], [0.0, -2.0, 0.0], n=550)
        ev = interception_event(traj, geom, -pi / 2)
        assert abs(ev.theta3) < 0.3
        # closer to the boundary than any interior reach value
        traj_mid = straight_trajectory([0.7, 2.0, geom.base[2]], [0.0, -2.0, 0.0], n=550)
        ev_mid = interception_event(traj_mid, geom, -pi / 2)
        assert abs(ev.theta3) < abs(ev_mid.theta3)

    def test_ik_residual(self, nominal_traj, env_cfg):
        geom = env_cfg.geom
        for t1 in (0.30, 0.45, 0.60, 0.70):
            ev = interception_event(nominal_traj, geom, t1)
            pos = forward_kinematics(geom, t1, ev.theta2, ev.theta3)
            # radial distance and height are solved exactly; the azimuth of
            # the interpolated crossing carries a tiny interpolation residual
            d_fk = pos - geom.base
            d_ev = ev.racket_pos - geom.base
            assert np.hypot(*d_fk[:2]) == pytest.approx(np.hypot(*d_ev[:2]), abs=1e-9)
            assert d_fk[2] == pytest.approx(d_ev[2], abs=1e-9)
            assert np.linalg.norm(pos - ev.racket_pos) < 1e-4


class TestRacketRotation:
    def test_rest_configuration(self):
        np.testing.assert_allclose(racket_rotation(InterceptionPolicy(0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_quarter_turn(self):
        g = racket_rotation(InterceptionPolicy(pi / 2, 0.0))
        np.testing.assert_allclose(g @ np.array([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_proper_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = racket_rotation(InterceptionPolicy(*rng.uniform(-pi, pi, 2)))
            np.testing.assert_allclose(g.T @ g, np.eye(3), atol=1e-12)
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


class TestRacketRotationJacobian:
    def test_generators_at_rest(self):
        d1, d4 = racket_rotation_jacobian(InterceptionPolicy(0.0, 0.0))
        gen_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        gen_x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(d1, gen_z, atol=1e-15)
        np.testing.assert_allclose(d4, gen_x, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            t1, t4 = rng.uniform(-1.2, 1.2, 2)
            d1, d4 = racket_rotation_jacobian(InterceptionPolicy(t1, t4))
            fd1 = (
                racket_rotation(InterceptionPolicy(t1 + h, t4))
                - racket_rotation(InterceptionPolicy(t1 - h, t4))
            ) / (2 * h)
            fd4 = (
                racket_rotation(InterceptionPolicy(t1, t4 + h))
                - racket_rotation(InterceptionPolicy(t1, t4 - h))
            ) / (2 * h)
            assert np.linalg.norm(d1 - fd1) / np.linalg.norm(fd1) < 1e-7
            assert np.linalg.norm(d4 - fd4) / np.linalg.norm(fd4) < 1e-7


class TestRacketVelocity:
    def _event(self, pos):
        return type("E", (), {"racket_pos": np.asarray(pos, dtype=float)})()

    def test_tangential_velocity(self):
        geom = ArmGeometry(base=np.array([0.0, 0.0, 0.8]))
        v = racket_velocity(self._event([0.7, 0.0, 1.3]), geom)
        np.testing.assert_allclose(v, [0.0, 4.2, 0.0], atol=1e-12)

    def test_zero_lever_arm(self):
        geom = ArmGeometry()
        v = racket_velocity(self._event(geom.base), geom)
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_speed_proportional_to_horizontal_distance(self):
        geom = ArmGeometry()
        rng = np.random.default_rng(9)
        for _ in range(10):
            pos = geom.base + rng.normal(size=3)
            v = racket_velocity(self._event(pos), geom)
            d_h = np.linalg.norm((pos - geom.base)[:2])
            assert np.linalg.norm(v) == pytest.approx(geom.theta1_dot * d_h, abs=1e-12)

