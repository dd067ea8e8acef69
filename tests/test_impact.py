"""Racket-ball impact model and its policy Jacobian."""

from math import pi

import numpy as np
import pytest

from ttreturn.arm import (
    InterceptionEvent,
    InterceptionPolicy,
    interception_event,
    racket_rotation,
    racket_velocity,
)
from ttreturn.greybox import MODEL
from ttreturn.impact import impact_state_jacobian, racket_impact


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRacketImpact:
    def test_zero_relative_velocity(self):
        v_r = np.array([1.0, -2.0, 0.5])
        xi = np.r_[np.zeros(3), v_r]
        out = racket_impact(xi, rot_z(0.3), v_r, MODEL)
        np.testing.assert_allclose(out[3:], v_r, atol=1e-12)

    def test_rest_frame_reflection(self):
        xi = np.r_[np.zeros(3), [0.0, -3.0, 0.0]]
        out = racket_impact(xi, np.eye(3), np.zeros(3), MODEL)
        np.testing.assert_allclose(out[3:], [0.0, 2.25, 0.0], atol=1e-12)

    def test_rotated_normal_reflection(self):
        xi = np.r_[np.zeros(3), [-3.0, 0.0, 0.0]]
        out = racket_impact(xi, rot_z(pi / 2), np.zeros(3), MODEL)
        np.testing.assert_allclose(out[3:], [2.25, 0.0, 0.0], atol=1e-12)

    def test_position_preserved_bitwise(self):
        p = np.array([0.123456789, -0.987654321, 1.111111111])
        xi = np.r_[p, [1.0, 2.0, 3.0]]
        out = racket_impact(xi, rot_z(0.7), np.array([0.1, 0.2, 0.3]), MODEL)
        assert np.array_equal(out[:3], p)

    def test_frame_covariance(self):
        rng = np.random.default_rng(10)
        physics = MODEL
        for _ in range(20):
            gamma = rot_z(rng.uniform(-pi, pi))
            v_minus = rng.normal(size=3)
            v_r = rng.normal(size=3)
            r = rot_z(rng.uniform(-pi, pi))
            out = racket_impact(np.r_[np.zeros(3), v_minus], gamma, v_r, physics)
            out_rot = racket_impact(
                np.r_[np.zeros(3), r @ v_minus], r @ gamma, r @ v_r, physics
            )
            np.testing.assert_allclose(out_rot[3:], r @ out[3:], atol=1e-12)

    def test_energy_bound(self):
        rng = np.random.default_rng(11)
        physics = MODEL
        for _ in range(20):
            gamma = rot_z(rng.uniform(-pi, pi))
            v_minus = rng.normal(size=3) * 5.0
            v_r = rng.normal(size=3)
            out = racket_impact(np.r_[np.zeros(3), v_minus], gamma, v_r, physics)
            assert np.linalg.norm(out[3:] - v_r) <= 0.75 * np.linalg.norm(v_minus - v_r) + 1e-12


def frozen_impact(phi, event, physics):
    gamma = racket_rotation(phi)
    v_r = racket_velocity(event)
    return racket_impact(event.xi_minus, gamma, v_r, physics)


class TestImpactStateJacobian:
    def test_matches_fd_on_frozen_event(self, nominal_traj):
        physics = MODEL
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(20):
            t1, t4 = rng.uniform([0.30, 0.0], [0.70, 0.4])
            event = interception_event(nominal_traj, t1)
            phi = InterceptionPolicy(t1, t4)
            jac = impact_state_jacobian(phi, event, physics, False)
            assert np.array_equal(jac[:3, :], np.zeros((3, 2)))
            fd = np.zeros((6, 2))
            for col, d in enumerate(((h, 0.0), (0.0, h))):
                hi = frozen_impact(InterceptionPolicy(t1 + d[0], t4 + d[1]), event, physics)
                lo = frozen_impact(InterceptionPolicy(t1 - d[0], t4 - d[1]), event, physics)
                fd[:, col] = (hi - lo) / (2 * h)
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-6

    def test_zero_yaw_rate_reduction(self, nominal_traj, zero_yaw_rate):
        # with THETA1_DOT = 0 the racket velocity vanishes and only the
        # rotation-derivative terms remain
        physics = MODEL
        t1, t4 = 0.45, 0.2
        event = interception_event(nominal_traj, t1)
        phi = InterceptionPolicy(t1, t4)
        jac = impact_state_jacobian(phi, event, physics, False)
        from ttreturn.arm import racket_rotation_jacobian

        gamma = racket_rotation(phi)
        m = np.diag(physics.restitution)
        d1, d4 = racket_rotation_jacobian(phi)
        for col, d_g in enumerate((d1, d4)):
            expected = (d_g @ m @ gamma.T + gamma @ m @ d_g.T) @ event.xi_minus[3:]
            np.testing.assert_allclose(jac[3:, col], expected, atol=1e-12)

    def test_zero_relative_velocity_kills_rotation_terms(self, nominal_traj):
        t1 = 0.45
        event = interception_event(nominal_traj, t1)
        event.xi_minus[3:] = racket_velocity(event)  # force v_minus == v_R
        phi = InterceptionPolicy(t1, 0.2)
        jac = impact_state_jacobian(phi, event, MODEL, False)
        np.testing.assert_allclose(jac, np.zeros((6, 2)), atol=1e-12)
