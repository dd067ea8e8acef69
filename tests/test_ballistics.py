"""Free-flight dynamics, landing propagation and flight Jacobians."""

import ctypes
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from conftest import fine_step_landing
from ttreturn import ballistics, kernel
from ttreturn.arm import InterceptionEvent, InterceptionPolicy, interception_event, racket_rotation, racket_velocity
from ttreturn.ballistics import (
    G_VERTICAL,
    JACOBIANS,
    Z_TABLE,
    LandingRecord,
    Physics,
    euler_flight,
    landing_state_jacobian,
    propagate_to_landing,
    remaining_time_gradient,
)
from ttreturn.env import SAMPLE_DT, TRUTH, EnvConfig, launch
from ttreturn.errors import MaxStepsExceeded, MissedBall, NegativeDiscriminant, SimulationError, SingularGradient
from ttreturn.greybox import MODEL
from ttreturn.impact import impact_state_jacobian, racket_impact


GRAVITY = np.array([0.0, 0.0, -9.8])  # test-local: the flight's gravity vector [m/s^2]


def physics(**kw) -> Physics:
    """Test-local: greybox.MODEL with the given fields replaced."""
    return replace(MODEL, **kw)


def state(p, v) -> np.ndarray:
    """Test-local: the 6-state of position p and velocity v."""
    return np.concatenate([p, v]).astype(float)


def remaining_time(xi) -> float:
    """Test-local oracle of the kernel's last-step length: the drag-free time
    max(v_z / g + sqrt(disc), 0) until the ball reaches the table plane."""
    vz, pz = float(xi[5]), float(xi[2])
    rise = vz / G_VERTICAL
    disc = rise * rise + 2.0 * (pz - ballistics.Z_TABLE) / G_VERTICAL
    if disc < 0.0:
        raise NegativeDiscriminant(f"ball cannot reach the table plane: discriminant = {disc:.3e}")
    return max(rise + sqrt(disc), 0.0)


def final_step(stop) -> tuple[float, np.ndarray]:
    """Test-local oracle of the kernel's closed-form last step from the stop state: its
    length t_last and the (2,) landing point, where the step's position update
    p + t_last v is interpolated onto the plane (NegativeDiscriminant if it cannot be reached)."""
    px, py, pz, vx, vy, vz = stop
    t_last = remaining_time(stop)
    # Euler's position update leaves out the g t_last^2 / 2 drop that t_last solves for
    dz = (pz + t_last * vz) - pz
    frac = (ballistics.Z_TABLE - pz) / dz if dz != 0.0 else 1.0
    return t_last, np.array((px + frac * ((px + t_last * vx) - px), py + frac * ((py + t_last * vy) - py)))


# full restitution: with the racket at rest (policy (0, 0) and the zero_yaw_rate fixture) the impact is the identity
UNIT = (1.0, 1.0, 1.0)


def fly(xi, p: Physics, jacobian=None, dxi=None):
    """Test-local: the kernel return (propagate_to_landing) of the post-impact state xi,
    through an impact that leaves it as it is; needs the zero_yaw_rate fixture."""
    event = InterceptionEvent(np.asarray(xi, dtype=float), dxi)
    return propagate_to_landing(InterceptionPolicy(0.0, 0.0), event, replace(p, restitution=UNIT), jacobian)


def step(xi, p: Physics, dt: float | None = None) -> np.ndarray:
    """Test-local: one Euler step of the 6-state xi, of length dt (p.dt by default)."""
    return np.array(euler_flight(np.asarray(xi, dtype=float).tolist(), p.k_drag, p.dt if dt is None else dt, 1,
                                 y_stop=-np.inf)[0])


def free_flight_step_jacobians(xi: np.ndarray, p: Physics, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Test-local: Jacobians of one Euler step of length dt of the 6-state xi,
    (d(next)/d(state), d(next)/d(step length))."""
    v = xi[3:]
    speed = float(np.linalg.norm(v))
    J = np.eye(6)
    J[0:3, 3:6] = dt * np.eye(3)
    if speed > 0.0:
        drag_jac = speed * np.eye(3) + np.outer(v, v) / speed
    else:
        # quadratic drag is differentiable at v = 0 with derivative 0
        drag_jac = np.zeros((3, 3))
    J[3:6, 3:6] = np.eye(3) - dt * p.k_drag * drag_jac
    acc = -p.k_drag * speed * v + GRAVITY
    J_dt = np.concatenate([v, acc])
    return J, J_dt


def one_step_final_step(stop, p: Physics) -> tuple[float, np.ndarray]:
    """Test-local: the last step as a one-step Euler flight of length t_last,
    its 6-state interpolated onto the plane."""
    start = np.array(stop, dtype=float)
    t_last = remaining_time(start)
    raw = step(start, p, t_last)
    dz = raw[2] - start[2]
    frac = (Z_TABLE - start[2]) / dz if dz != 0.0 else 1.0
    landing = start + frac * (raw - start)
    landing[2] = Z_TABLE
    return t_last, landing


def dot(row, x) -> float:
    """Test-local: the dot product of two float sequences, summed left to right."""
    total = row[0] * x[0]
    for r, c in zip(row[1:], x[1:]):
        total += r * c
    return total


def six_row_landing_jacobian(record: LandingRecord, tangent, p: Physics) -> np.ndarray:
    """Test-local: the 6-row landing-state Jacobian of a re-flown last step applied to
    the tangent, each column as the chain rule takes it: dense sums, left to right, over
    the step Jacobians of free_flight_step_jacobians and the remaining-time gradient."""
    start = record.stop
    A, b = free_flight_step_jacobians(start, p, record.t_last)
    grad = remaining_time_gradient(start).tolist()
    raw = step(start, p, record.t_last)
    delta, u, w = (raw - start).tolist(), Z_TABLE - start[2], raw[2] - start[2]
    columns = []
    for col in np.asarray(tangent, dtype=float).T.tolist():
        d_t = dot(grad, col)
        dq = [dot(a, col) + b_r * d_t for a, b_r in zip(A.tolist(), b.tolist())]
        if w == 0.0:
            columns.append(dq)
            continue
        s, ds = u / w, ((u - w) * dot(np.eye(6)[2].tolist(), col) - u * dq[2]) / (w * w)
        columns.append([s * q + (1.0 - s) * c + d * ds for q, c, d in zip(dq, col, delta)])
    return np.array(columns).T


class TestFreeFlightStep:
    def test_zero_velocity(self):
        xi = state([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        nxt = step(xi, physics(dt=0.01))
        assert np.array_equal(nxt[:3], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(nxt[3:], [0.0, 0.0, -0.098], atol=1e-15)

    def test_drag_deceleration_values(self):
        xi = state([0.0, 0.0, 1.0], [10.0, 0.0, 0.0])
        nxt = step(xi, physics(k_drag=0.106, dt=0.01))
        np.testing.assert_allclose(nxt[3:], [9.894, 0.0, -0.098], atol=1e-12)
        np.testing.assert_allclose(nxt[:3], [0.1, 0.0, 1.0], atol=1e-15)

    def test_no_drag_is_pure_ballistic(self):
        rng = np.random.default_rng(0)
        p = physics(k_drag=0.0, dt=0.02)
        for _ in range(10):
            xi = state(rng.normal(size=3), rng.normal(size=3))
            nxt = step(xi, p)
            np.testing.assert_allclose(nxt[3:], xi[3:] + 0.02 * GRAVITY, atol=1e-15)

    def test_speed_dissipation_without_gravity(self):
        # with gravity's share dt g taken out of the step, drag alone shrinks the speed
        p = physics(k_drag=0.3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = state(np.zeros(3), rng.normal(size=3) * 5.0)
            nxt = step(xi, p)
            assert np.linalg.norm(nxt[3:] - p.dt * GRAVITY) <= np.linalg.norm(xi[3:]) + 1e-12

    def test_dt_override(self):
        xi = state([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        nxt = step(xi, physics(dt=0.01), 0.5)
        assert nxt[0] == pytest.approx(0.5)

    def test_determinism(self):
        xi = state([0.1, 0.2, 1.3], [2.0, -3.0, 1.0])
        a = step(xi, physics())
        b = step(xi, physics())
        assert np.array_equal(a, b)


class TestFreeFlightStepJacobians:
    def test_zero_velocity(self):
        xi = state(np.zeros(3), np.zeros(3))
        j, j_dt = free_flight_step_jacobians(xi, physics(dt=0.01), 0.01)
        np.testing.assert_array_equal(j[3:, 3:], np.eye(3))
        np.testing.assert_allclose(j_dt, [0, 0, 0, 0, 0, -9.8], atol=1e-15)

    def test_no_drag_constant_matrix(self):
        p = physics(k_drag=0.0, dt=0.05)
        expected = np.eye(6)
        expected[0:3, 3:6] = 0.05 * np.eye(3)
        for v in ([1.0, 2.0, 3.0], [-4.0, 0.0, 9.0]):
            j, _ = free_flight_step_jacobians(state(np.zeros(3), v), p, p.dt)
            np.testing.assert_array_equal(j, expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = physics(dt=0.01)
        h = 1e-6
        for _ in range(20):
            xi = rng.normal(size=6) * 3.0
            j, _ = free_flight_step_jacobians(xi, p, p.dt)
            fd = np.zeros((6, 6))
            for col in range(6):
                d = np.zeros(6)
                d[col] = h
                hi = step(xi + d, p)
                lo = step(xi - d, p)
                fd[:, col] = (hi - lo) / (2 * h)
            assert np.linalg.norm(j - fd) / np.linalg.norm(fd) < 1e-6

    def test_dt_column_matches_finite_differences(self):
        xi = state([0.0, 0.0, 2.0], [3.0, -1.0, 0.5])
        p = physics()
        _, j_dt = free_flight_step_jacobians(xi, p, 0.3)
        h = 1e-6
        hi = step(xi, p, 0.3 + h)
        lo = step(xi, p, 0.3 - h)
        np.testing.assert_allclose(j_dt, (hi - lo) / (2 * h), atol=1e-6)


class TestRemainingTime:
    def test_at_table_height(self):
        xi = state([0.0, 0.0, 0.76], [1.0, 1.0, 0.0])
        assert remaining_time(xi) == 0.0

    def test_pure_drop(self):
        xi = state([0.0, 0.0, 0.76 + 0.49], [0.0, 0.0, 0.0])
        assert remaining_time(xi) == pytest.approx(sqrt(2 * 0.49 / 9.8), abs=1e-5)
        assert remaining_time(xi) == pytest.approx(0.31623, abs=1e-5)

    def test_symmetric_up_down_flight(self):
        xi = state([0.0, 0.0, 0.76], [0.0, 0.0, 9.8])
        assert remaining_time(xi) == pytest.approx(2.0, abs=1e-12)

    def test_negative_discriminant(self):
        xi = state([0.0, 0.0, 0.0], [0.0, 0.0, 0.1])
        with pytest.raises(NegativeDiscriminant):
            remaining_time(xi)


# stop states of the last step's edge cases: below the plane and falling (t_last = 0,
# so dz = 0 as well), level above the plane (dz = 0 with t_last > 0), and under the
# plane with an apex below it (negative discriminant)
FINAL_STEP_EDGES = {
    "t_last_zero": (0.1, 0.2, 0.5, 1.0, 1.0, -5.0),
    "dz_zero": (0.1, 0.2, 1.0, 1.0, -1.0, 0.0),
    "negative_discriminant": (0.0, 0.0, 0.5, 1.0, 0.0, 0.1),
}


class TestFinalStep:
    def test_edge_cases_reach_their_branch(self):
        assert final_step(FINAL_STEP_EDGES["t_last_zero"])[0] == 0.0
        t_last, landing = final_step(FINAL_STEP_EDGES["dz_zero"])
        assert t_last > 0.0
        np.testing.assert_allclose(landing, [0.1 + t_last, 0.2 - t_last], rtol=0.0, atol=1e-15)
        with pytest.raises(NegativeDiscriminant):
            final_step(FINAL_STEP_EDGES["negative_discriminant"])

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.6),
                  st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        st.floats(0.0, 0.3),
    )
    @example(FINAL_STEP_EDGES["t_last_zero"], 0.106)
    @example(FINAL_STEP_EDGES["dz_zero"], 0.106)
    @example(FINAL_STEP_EDGES["negative_discriminant"], 0.106)
    def test_matches_one_step_flight_bit_for_bit(self, stop, k_drag):
        p = physics(k_drag=k_drag)
        try:
            expected = one_step_final_step(stop, p)
        except NegativeDiscriminant as exc:
            with pytest.raises(NegativeDiscriminant) as raised:
                final_step(stop)
            assert str(raised.value) == str(exc)
            return
        t_last, landing = final_step(stop)
        assert t_last == expected[0]
        assert landing.shape == (2,)
        np.testing.assert_array_equal(landing, expected[1][:2])

class TestRemainingTimeGradient:
    def test_hand_derived_values(self):
        xi = state([0.3, -0.1, 0.76 + 0.49], [2.0, 1.0, 0.0])
        grad = remaining_time_gradient(xi)
        assert grad[2] == pytest.approx(1.0 / (9.8 * 0.31623), abs=1e-4)
        assert grad[2] == pytest.approx(0.32275, abs=1e-4)
        assert grad[5] == pytest.approx(0.10204, abs=1e-4)
        assert np.array_equal(grad[[0, 1, 3, 4]], np.zeros(4))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        checked = 0
        while checked < 100:
            xi = rng.normal(size=6)
            xi[2] = rng.uniform(1.0, 2.5)
            try:
                grad = remaining_time_gradient(xi)
            except SingularGradient:
                continue
            fd = np.zeros(6)
            for col in range(6):
                d = np.zeros(6)
                d[col] = h
                fd[col] = (
                    remaining_time(xi + d)
                    - remaining_time(xi - d)
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6
            checked += 1

    def test_singular_at_zero_discriminant(self):
        xi = state([0.0, 0.0, 0.76], [0.0, 0.0, 0.0])
        with pytest.raises(SingularGradient):
            remaining_time_gradient(xi)


@pytest.mark.usefixtures("zero_yaw_rate")
class TestPropagateToLanding:
    """The kernel return from post-impact states, through an impact that leaves them as they are (fly)."""

    def test_immediate_landing(self):
        xi = state([0.2, 0.3, 0.761], [0.0, 0.0, -1.0])
        rec = fly(xi, physics(dt=0.01))
        assert rec.k_max == 0
        assert np.array_equal(rec.stop, xi)
        assert 0.0 < rec.t_last <= 0.01

    def test_drop_time_within_two_percent(self):
        xi = state([0.4, -0.2, 0.76 + 0.49], [0.0, 0.0, 0.0])
        rec = fly(xi, physics(dt=0.001))
        np.testing.assert_allclose(rec.landing_point, [0.4, -0.2], atol=1e-12)
        assert rec.k_max * 0.001 + rec.t_last == pytest.approx(0.3162, rel=0.02)

    def test_matches_fine_step_reference(self):
        # a launched return at roughly 5 m/s
        xi = state([-0.6, 0.7, 1.1], [-3.5, 2.8, 2.0])
        assert np.linalg.norm(xi[3:]) == pytest.approx(4.9, abs=0.2)
        rec = fly(xi, physics(dt=1e-3))
        ref = fine_step_landing(xi, 0.106, 0.76)
        assert np.linalg.norm(rec.landing_point - ref) < 5e-3

    def test_landing_state_on_plane(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = state([rng.normal(), rng.normal(), rng.uniform(0.9, 1.6)], rng.normal(size=3) * 4.0)
            rec = fly(xi, physics())
            _, landing = final_step(rec.stop)
            assert np.array_equal(rec.landing_point, landing)
            assert rec.k_max * 1e-3 + rec.t_last > 0.0
            # the flight stops once the drag-free remaining time is at most dt
            assert remaining_time(rec.stop) == rec.t_last <= 1e-3

    def test_residual_before_interpolation_below_1mm(self):
        # the drag-free time prediction misses the plane by a small residual
        rng = np.random.default_rng(5)
        p = physics(dt=0.01)
        worst = 0.0
        for _ in range(100):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(1.0, 15.0)
            v[2] = abs(v[2])
            xi = state([0.0, 0.0, rng.uniform(1.0, 2.0)], v)
            rec = fly(xi, p)
            raw = step(rec.stop, p, rec.t_last)
            worst = max(worst, abs(raw[2] - 0.76))
        assert worst < 1e-3

    def test_drag_free_closed_form(self):
        # with zero drag the Euler recursion has an exact closed form
        p = physics(k_drag=0.0, dt=0.01)
        xi = state([0.3, -0.2, 1.8], [1.2, 0.7, 2.0])
        rec = fly(xi, p)
        g = GRAVITY
        k, dt = rec.k_max, p.dt
        vk = xi[3:] + k * dt * g
        pk = xi[:3] + k * dt * xi[3:] + dt * dt * g * (k * (k - 1) / 2)
        t = vk[2] / 9.8 + sqrt((vk[2] / 9.8) ** 2 + 2 * (pk[2] - 0.76) / 9.8)
        start = np.concatenate([pk, vk])
        raw = np.concatenate([pk + t * vk, vk + t * g])
        s = (0.76 - start[2]) / (raw[2] - start[2])
        closed = start + s * (raw - start)
        assert rec.t_last == pytest.approx(t, abs=1e-12)
        np.testing.assert_allclose(rec.landing_point, closed[:2], atol=1e-9)

    @pytest.mark.parametrize("vz", [0.1, 2.0, -1.0])
    def test_below_plane_without_reach_raises(self, vz):
        # the apex of a ball starting at z = 0.5 stays under the plane
        xi = state([0.0, 0.0, 0.5], [1.0, 0.0, vz])
        with pytest.raises(NegativeDiscriminant):
            fly(xi, physics())

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(ballistics, "MAX_STEPS", 10)
        xi = state([0.0, 0.0, 5.0], [0.0, 0.0, 0.0])
        with pytest.raises(MaxStepsExceeded):
            fly(xi, physics(dt=1e-4))

    @pytest.mark.parametrize("k_drag,dt", [(0.106, 1e-3), (0.12, 5e-4)], ids=["model", "truth"])
    def test_tangent_leaves_flight_unchanged(self, k_drag, dt):
        rng = np.random.default_rng(11)
        p = physics(k_drag=k_drag, dt=dt)
        for _ in range(10):
            xi = state([rng.normal(), rng.normal(), rng.uniform(0.9, 1.6)], rng.normal(size=3) * 4.0)
            plain = fly(xi, p)
            for pushed in (fly(xi, p, "frozen"), fly(xi, p, "coupled", tuple(rng.normal(size=6).tolist()))):
                assert np.array_equal(plain.stop, pushed.stop)
                assert np.array_equal(plain.landing_point, pushed.landing_point)
                assert (plain.k_max, plain.t_last) == (pushed.k_max, pushed.t_last)
                assert pushed.jacobian.shape == (2, 2) and np.isfinite(pushed.jacobian).all()
            assert plain.jacobian is None


def _landing_fd(xi_vec, p, h=1e-6):
    fd = np.zeros((2, 6))
    k_maxes = set()
    for col in range(6):
        d = np.zeros(6)
        d[col] = h
        rec_hi = fly(xi_vec + d, p)
        rec_lo = fly(xi_vec - d, p)
        k_maxes.update((rec_hi.k_max, rec_lo.k_max))
        fd[:, col] = (rec_hi.landing_point - rec_lo.landing_point) / (2 * h)
    return fd, k_maxes


# the 6x6 identity as the three 6x2 column pairs a flight pushes
IDENTITY_PAIRS = [np.eye(6)[:, c:c + 2] for c in (0, 2, 4)]


def pushed_identity(xi, p):
    """Test-local: the kernel record of the return from xi and its 2x6 landing-point
    Jacobian, one column per unit event tangent of a coupled return (through fly's
    impact the theta1 column of the impact Jacobian is that tangent)."""
    records = [fly(xi, p, "coupled", tuple(unit)) for unit in np.eye(6).tolist()]
    return records[0], np.column_stack([rec.jacobian[:, 0] for rec in records])


def reference_record(xi, p, tangent):
    """Test-local: the record of the flight from xi (euler_flight and the final_step
    oracle) and the tangent that flight pushed."""
    stop, k, pushed, _ = euler_flight(np.asarray(xi, dtype=float).tolist(), p.k_drag, p.dt, ballistics.MAX_STEPS,
                                      tangent=tangent)
    t_last, landing = final_step(stop)
    return LandingRecord(k, t_last, landing, np.array(stop)), pushed


@pytest.mark.usefixtures("zero_yaw_rate")
class TestLandingStateJacobian:
    def test_immediate_landing_matches_fd(self):
        p = physics(dt=0.01)
        xi = state([0.2, 0.3, 0.761], [1.0, -0.5, -1.0])
        rec, jac = pushed_identity(xi, p)
        assert rec.k_max == 0
        fd, _ = _landing_fd(xi, p)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-4

    def test_matches_fd_over_random_states(self):
        rng = np.random.default_rng(6)
        p = physics(dt=1e-3)
        boundary_cases = 0
        checked = 0
        for _ in range(100):
            xi = np.concatenate(
                [[rng.normal(), rng.normal(), rng.uniform(0.9, 1.6)], rng.normal(size=3) * 4.0]
            )
            rec, jac = pushed_identity(xi, p)
            fd, k_maxes = _landing_fd(xi, p)
            if len(k_maxes) > 1 or k_maxes != {rec.k_max}:
                boundary_cases += 1  # FD stepped across a step-count change
                continue
            checked += 1
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-4
        assert checked >= 95
        assert boundary_cases <= 5

    @pytest.mark.parametrize("k_drag,dt", [(0.106, 1e-3), (0.12, 5e-4)], ids=["model", "truth"])
    def test_matches_six_row_rows_bit_for_bit(self, k_drag, dt):
        # the closed-form position rows give rows 0-1 of the 6-row landing-state
        # Jacobian of a re-flown last step, bit for bit
        rng = np.random.default_rng(14)
        p = physics(k_drag=k_drag, dt=dt)
        for _ in range(50):
            xi = state([rng.normal(), rng.normal(), rng.uniform(0.9, 1.6)], rng.normal(size=3) * 4.0)
            rec, tangent = reference_record(xi, p, rng.normal(size=(6, 2)))
            jac = landing_state_jacobian(rec, tangent)
            assert jac.shape == (2, 2)
            np.testing.assert_array_equal(jac, six_row_landing_jacobian(rec, tangent, p)[:2])


def _euler_states(xi, p, n):
    """Test-local Euler loop: the states before each of n full steps, and the state after them."""
    states = [np.asarray(xi, dtype=float)]
    for _ in range(n):
        pos, v = states[-1][:3], states[-1][3:]
        acc = -p.k_drag * np.linalg.norm(v) * v + GRAVITY
        states.append(np.concatenate([pos + p.dt * v, v + p.dt * acc]))
    return states


def _step_product(states, p):
    """Test-local 6x6 product of the per-step Jacobians over the full steps."""
    product = np.eye(6)
    for row in states[:-1]:
        j, _ = free_flight_step_jacobians(row, p, p.dt)
        product = j @ product
    return product


@pytest.mark.usefixtures("zero_yaw_rate")
class TestTangentJacobianOracle:
    @pytest.mark.parametrize("k_drag,dt", [(0.106, 1e-3), (0.12, 5e-4)], ids=["model", "truth"])
    def test_matches_step_jacobian_product(self, k_drag, dt):
        rng = np.random.default_rng(10)
        p = physics(k_drag=k_drag, dt=dt)
        for _ in range(10):
            xi = np.concatenate(
                [[rng.normal(), rng.normal(), rng.uniform(0.9, 1.6)], rng.normal(size=3) * 4.0]
            )
            rec, full = pushed_identity(xi, p)
            assert rec.k_max > 100
            states = _euler_states(xi, p, rec.k_max)
            np.testing.assert_allclose(states[-1], rec.stop, rtol=0.0, atol=1e-12)
            # with no full steps the tangent push is the identity, leaving
            # only the last-step and interpolation corrections
            last_only = np.hstack([landing_state_jacobian(rec, pair) for pair in IDENTITY_PAIRS])
            oracle = last_only @ _step_product(states, p)
            assert np.linalg.norm(full - oracle) / np.linalg.norm(oracle) < 1e-12
            tangent = rng.normal(size=(6, 2))
            pushed = landing_state_jacobian(*reference_record(xi, p, tangent))
            expected = oracle @ tangent
            assert pushed.shape == (2, 2)
            assert np.linalg.norm(pushed - expected) / np.linalg.norm(expected) < 1e-12


def post_loop_push(row, p, tangent):
    """Test-local: the landing flight with the tangent pushed after the loop,
    column by column, through the velocity and drag factors kept per step."""
    px, py, pz, vx, vy, vz = row
    vz_top, z_top = 9.8 * p.dt, Z_TABLE + 0.5 * 9.8 * p.dt * p.dt
    gx, gy, gz = GRAVITY.tolist()
    scale, coef = p.dt * p.k_drag, []
    for n in range(ballistics.MAX_STEPS):
        if vz <= vz_top and pz + p.dt * vz <= z_top:
            break
        speed = sqrt(vx * vx + vy * vy + vz * vz)
        coef.append((vx, vy, vz, scale * speed, scale / speed if speed > 0.0 else 0.0))
        drag = p.k_drag * speed
        px, py, pz = px + p.dt * vx, py + p.dt * vy, pz + p.dt * vz
        vx, vy, vz = vx + p.dt * (gx - drag * vx), vy + p.dt * (gy - drag * vy), vz + p.dt * (gz - drag * vz)
    columns = []
    for dpx, dpy, dpz, dvx, dvy, dvz in np.asarray(tangent, dtype=float).T.tolist():
        sx = sy = sz = 0.0
        for vx_, vy_, vz_, damp, cross in coef:
            along = cross * (vx_ * dvx + vy_ * dvy + vz_ * dvz)
            sx, sy, sz = sx + dvx, sy + dvy, sz + dvz
            dvx -= damp * dvx + along * vx_
            dvy -= damp * dvy + along * vy_
            dvz -= damp * dvz + along * vz_
        columns.append((dpx + p.dt * sx, dpy + p.dt * sy, dpz + p.dt * sz, dvx, dvy, dvz))
    return (px, py, pz, vx, vy, vz), n, np.array(columns).T


class TestInLoopTangent:
    @pytest.mark.parametrize("shape", [(6, 6), (6, 1), (6, 3), (2, 6), (12,)], ids=str)
    def test_rejects_other_shapes(self, shape):
        xi = state([0.0, 0.0, 1.2], [-2.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=rf"6x2, got shape \({shape[0]},"):
            euler_flight(xi.tolist(), MODEL.k_drag, 1e-3, 10, tangent=np.zeros(shape))

    def test_matches_post_loop_push_bit_for_bit(self):
        # jittered launches intercepted at random policies; the post-impact
        # state flies at the model's parameters with the impact Jacobian of
        # either mode as its tangent, as the grey-box gradient pushes it
        cfg, p = EnvConfig(), MODEL
        rng = np.random.default_rng(29)
        launches = 0
        while launches < 200:
            traj = launch(cfg, rng)
            phi = InterceptionPolicy(*rng.uniform([0.31, 0.0], [0.67, 0.40]).tolist())
            try:
                event = interception_event(traj, phi.theta1)
            except MissedBall:
                continue
            launches += 1
            xi = racket_impact(event.xi_minus, racket_rotation(phi), racket_velocity(event), p)
            for coupled in (False, True):
                if coupled and event.dxi_dtheta1 is None:
                    continue
                tangent = impact_state_jacobian(phi, event, p, coupled)
                stop, n, pushed, _ = euler_flight(xi.tolist(), p.k_drag, p.dt, ballistics.MAX_STEPS, tangent=tangent)
                want_stop, want_n, want = post_loop_push(xi.tolist(), p, tangent)
                assert (stop, n) == (want_stop, want_n)
                assert np.array_equal(pushed, want) and pushed.shape == (6, 2)


def stepped_states(row, k_drag: float, dt: float, n: int) -> list:
    """Test-local: the start and the states of n single-step launch flights from it, in turn."""
    states = [list(row)]
    for _ in range(n):
        states.append(list(euler_flight(states[-1], k_drag, dt, 1, y_stop=-np.inf)[0]))
    return states


class TestKeepRule:
    K, DT = 0.12, 2e-3

    def test_without_y_keep_keeps_every_state(self):
        row = [-0.15, 3.9, 1.1, 0.0, -8.3, 3.3]
        stop, n, _, kept = euler_flight(row, self.K, self.DT, 40, y_stop=-np.inf, samples=True)
        want = stepped_states(row, self.K, self.DT, 40)
        assert (n, list(stop)) == (40, want[-1])
        assert kept.tolist() == [x for s in want for x in s]

    @pytest.mark.parametrize("row,y_keep", [([-0.15, 3.9, 1.1, 0.0, -8.3, 3.3], 3.5),  # falling y: a window
                                            ([-0.15, 3.5, 1.1, 0.0, -8.3, 3.3], 3.5),  # the start on y_keep
                                            ([-0.15, 0.0, 1.1, 0.0, 5.0, 3.3], 0.05)])  # rising y: a head
    def test_keeps_only_states_at_or_below_y_keep(self, row, y_keep):
        kept = euler_flight(row, self.K, self.DT, 60, y_stop=-np.inf, samples=True, y_keep=y_keep)[3].tolist()
        want = [s for s in stepped_states(row, self.K, self.DT, 60) if s[1] <= y_keep]
        assert 0 < len(want) and (kept[:6] == row) == (row[1] <= y_keep)
        assert kept == [x for s in want for x in s]

    @pytest.mark.parametrize("row,max_steps,stop_at", [
        ([-1.1, 1.0, 0.9, 0.0, -8.3, -3.0], 1500, "table"),
        ([2.0, 1.0, 0.5, 0.0, -8.3, -5.0], 1500, "floor"),
        ([-0.15, 3.9, 1.1, 0.0, -8.3, 3.3], 30, "step cap"),
        ([-0.15, 3.9, 1.1, 0.0, -8.3, 3.3], 0, "step cap"),
    ])
    def test_stop_before_keeping_keeps_the_stop_state(self, row, max_steps, stop_at):
        stop, n, _, kept = euler_flight(row, self.K, self.DT, max_steps, y_stop=-5.0, samples=True, y_keep=-1.0)
        assert kept.tolist() == list(stop) and min(row[1], stop[1]) > -1.0
        (cx, cy), (hx, hy) = ballistics.TABLE_CENTER, ballistics.TABLE_HALF
        on_table = stop[2] <= Z_TABLE and abs(stop[0] - cx) <= hx and abs(stop[1] - cy) <= hy
        reached = {"table": on_table, "floor": stop[2] <= 0.0, "step cap": n == max_steps}
        assert [name for name, hit in reached.items() if hit] == [stop_at]


def python_flight(row, k_drag, dt, max_steps, y_stop=None, samples=False, y_keep=np.inf, tangent=None):
    """Test-local oracle: the Python step loop that the compiled kernel replaced,
    kept as it was but for returning its kept samples as an array. Same arguments,
    return value and errors as euler_flight."""
    G_VERTICAL, Z_TABLE = ballistics.G_VERTICAL, ballistics.Z_TABLE
    px, py, pz, vx, vy, vz = row
    k_drag, z_plane = float(k_drag), Z_TABLE
    land, contact = y_stop is None, y_stop is not None
    if land:
        vz_top = G_VERTICAL * dt
        z_top = z_plane + 0.5 * G_VERTICAL * dt * dt
    else:
        (cx, cy), (hx, hy) = ballistics.TABLE_CENTER, ballistics.TABLE_HALF
    keep, push, scale = samples, tangent is not None, dt * k_drag
    samples = [] if keep else None
    if push:
        if np.shape(tangent) != (6, 2):
            raise ValueError(f"tangent must be 6x2, got shape {np.shape(tangent)}")
        (pxa, pxb), (pya, pyb), (pza, pzb), (ax, bx), (ay, by), (az, bz) = np.asarray(tangent, dtype=float).tolist()
        sax = say = saz = sbx = sby = sbz = 0.0
    if keep and py <= y_keep:
        samples.extend((px, py, pz, vx, vy, vz))
    for n in range(max_steps):
        if land and vz <= vz_top and pz + dt * vz <= z_top:
            break
        speed = sqrt(vx * vx + vy * vy + vz * vz)
        if push:
            damp, cross = scale * speed, scale / speed if speed > 0.0 else 0.0
            along = cross * (vx * ax + vy * ay + vz * az)
            sax, say, saz = sax + ax, say + ay, saz + az
            ax -= damp * ax + along * vx
            ay -= damp * ay + along * vy
            az -= damp * az + along * vz
            along = cross * (vx * bx + vy * by + vz * bz)
            sbx, sby, sbz = sbx + bx, sby + by, sbz + bz
            bx -= damp * bx + along * vx
            by -= damp * by + along * vy
            bz -= damp * bz + along * vz
        drag = k_drag * speed
        px += dt * vx
        py += dt * vy
        pz += dt * vz
        vx -= dt * (drag * vx)
        vy -= dt * (drag * vy)
        vz += dt * (-G_VERTICAL - drag * vz)
        if keep and py <= y_keep:
            samples.extend((px, py, pz, vx, vy, vz))
        if contact and (
            pz <= 0.0 or py <= y_stop or (pz <= z_plane and abs(px - cx) <= hx and abs(py - cy) <= hy)
        ):
            n += 1
            break
    else:
        n = max_steps
        if land and not (vz <= vz_top and pz + dt * vz <= z_top):
            raise ballistics.no_landing(max_steps)
    stop = (px, py, pz, vx, vy, vz)
    if keep and not samples:
        samples.extend(stop)
    kept = np.array(samples) if keep else None
    if not push:
        return stop, n, None, kept
    columns = ((pxa + dt * sax, pya + dt * say, pza + dt * saz, ax, ay, az),
               (pxb + dt * sbx, pyb + dt * sby, pzb + dt * sbz, bx, by, bz))
    return stop, n, np.array(columns).T, kept


def bits(values) -> list:
    """Test-local: the IEEE bit patterns of floats, so that NaNs compare too."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def flight_outcome(flight, row, *args, keep=False, **kwargs):
    """Test-local: a flight's stop, step count, samples and tangent as bit patterns,
    or its error's type and message."""
    try:
        stop, n, tangent, samples = flight(row, *args, samples=keep, **kwargs)
    except (MaxStepsExceeded, ValueError) as exc:
        return type(exc), str(exc)
    assert type(stop) is tuple and type(n) is int and (samples is None) == (not keep)
    pushed = None if tangent is None else (tangent.shape, bits(tangent), tangent.flags.f_contiguous)
    kept = None if samples is None else (samples.dtype, samples.shape, bits(samples))
    return bits(stop), n, kept, pushed


def assert_kernel_matches_python(row, *args, keep=False, **kwargs):
    got = flight_outcome(euler_flight, row, *args, keep=keep, **kwargs)
    assert got == flight_outcome(python_flight, row, *args, keep=keep, **kwargs)
    return got


# rows at the kernel's edges: at rest (the cross = 0 branch of the tangent push), not
# finite, overflowing in the first step (the overflowed launch of tests/test_cli.py),
# starting below the table plane and falling, and dropped from 60 m, which takes more than 4000 steps
EDGE_ROWS = {
    "rest": [0.1, -0.2, 1.5, 0.0, 0.0, 0.0],
    "nan": [0.0, 0.0, 1.0, 0.0, np.nan, 1.0],
    "inf": [0.0, 0.0, 1.0, np.inf, 0.0, 0.0],
    "overflow": [-0.15, 3.9, 1.1, 1e160, 0.0, 3.3],
    "below_plane": [0.2, 0.1, 0.5, 1.0, -2.0, -0.5],
    "max_steps": [0.0, 0.0, 60.0, 0.0, 0.0, 0.0],
}


class TestKernelMatchesPythonLoop:
    """The compiled kernel against the Python loop it replaced, bit for bit."""

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
                  st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        st.sampled_from(["truth", "model"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_return_flights(self, row, which, push, seed):
        p = {"truth": TRUTH, "model": MODEL}[which]
        tangent = np.random.default_rng(seed).normal(size=(6, 2)) if push else None
        assert_kernel_matches_python(list(row), p.k_drag, p.dt, ballistics.MAX_STEPS, tangent=tangent)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.floats(-0.5, 0.2), st.floats(3.0, 4.2), st.floats(0.6, 1.6),
                  st.floats(-1.0, 1.0), st.floats(-11.0, 2.0), st.floats(-1.0, 5.0)),
        st.floats(-2.0, 4.0),
        st.one_of(st.just(np.inf), st.floats(-2.0, 4.5)),
        st.integers(0, 1600),
    )
    @example((-0.15, 3.9, 1.1, 0.0, -8.3, 3.3), -1.2, np.inf, 1501)
    @example((-0.15, 3.9, 1.1, 0.0, -8.3, 3.3), 0.1, 0.25, 1501)
    def test_launches(self, row, y_stop, y_keep, max_steps):
        assert_kernel_matches_python(list(row), TRUTH.k_drag, SAMPLE_DT, max_steps, y_stop, keep=True, y_keep=y_keep)

    def test_tangents_frozen_and_coupled(self):
        # the impact Jacobians the grey-box gradient pushes, at jittered interceptions
        cfg, rng, flights = EnvConfig(), np.random.default_rng(33), 0
        while flights < 100:
            traj = launch(cfg, rng)
            phi = InterceptionPolicy(*rng.uniform([0.31, 0.0], [0.67, 0.40]).tolist())
            try:
                event = interception_event(traj, phi.theta1)
            except MissedBall:
                continue
            for p in (MODEL, TRUTH):
                xi = racket_impact(event.xi_minus, racket_rotation(phi), racket_velocity(event), p).tolist()
                for coupled in (False, True):
                    if coupled and event.dxi_dtheta1 is None:
                        continue
                    tangent = impact_state_jacobian(phi, event, p, coupled)
                    assert_kernel_matches_python(xi, p.k_drag, p.dt, ballistics.MAX_STEPS, tangent=tangent)
                    flights += 1

    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    @pytest.mark.parametrize("max_steps", [0, 1, 4000])
    def test_edge_rows(self, name, max_steps):
        row, tangent = EDGE_ROWS[name], np.arange(12.0).reshape(6, 2) - 5.0
        for dt in (MODEL.dt, TRUTH.dt):
            assert_kernel_matches_python(row, 0.12, dt, max_steps, tangent=tangent)
            assert_kernel_matches_python(row, 0.12, dt, max_steps, keep=True)
            assert_kernel_matches_python(row, 0.12, SAMPLE_DT, max_steps, -1.2, keep=True, y_keep=3.0)

    def test_edge_row_outcomes(self, zero_yaw_rate):
        # each edge row reaches the branch it is named for
        def outcome(name, max_steps=4000, **kwargs):
            return assert_kernel_matches_python(EDGE_ROWS[name], MODEL.k_drag, MODEL.dt, max_steps, **kwargs)

        assert outcome("rest", tangent=np.eye(6)[:, :2])[1] > 0
        assert outcome("max_steps")[0] is MaxStepsExceeded
        assert outcome("nan")[0] is MaxStepsExceeded and outcome("inf")[0] is MaxStepsExceeded
        assert outcome("below_plane")[1] == 0 and outcome("below_plane", max_steps=0)[1] == 0
        assert outcome("rest", max_steps=0)[0] is MaxStepsExceeded
        stop, n, samples, _ = outcome("overflow", 1501, y_stop=-1.2, keep=True)
        assert n > 0 and np.isnan(np.array(stop, dtype=np.int64).view(float)).any()
        assert len(samples[2]) < 6 * (n + 1)  # a state whose y overflowed to NaN is not kept
        with pytest.raises(MaxStepsExceeded, match="^no landing within 4000 steps$"):
            fly(EDGE_ROWS["max_steps"], MODEL)


def reference_return(phi, event, physics, jacobian=None) -> LandingRecord:
    """Test-local oracle of one kernel return: the scalar references racket_impact and
    impact_state_jacobian, the Python step loop, the final_step oracle and landing_state_jacobian."""
    xi = racket_impact(event.xi_minus, racket_rotation(phi), racket_velocity(event), physics)
    tangent = None if jacobian is None else impact_state_jacobian(phi, event, physics, jacobian == "coupled")
    stop, k, pushed, _ = python_flight(xi.tolist(), physics.k_drag, physics.dt, ballistics.MAX_STEPS, tangent=tangent)
    t_last, landing = final_step(stop)
    record = LandingRecord(k, t_last, landing, np.array(stop))
    if tangent is not None:
        record.jacobian = landing_state_jacobian(record, pushed)
    return record


def return_outcome(ret, *args):
    """Test-local: a return's step count, t_last, landing point, stop and Jacobian as bit
    patterns, or its error's type and message."""
    try:
        rec = ret(*args)
    except SimulationError as exc:
        return type(exc), str(exc)
    assert type(rec.k_max) is int and rec.landing_point.shape == (2,) and rec.stop.shape == (6,)
    return rec.k_max, bits([rec.t_last]), bits(rec.landing_point), bits(rec.stop), \
        None if rec.jacobian is None else (rec.jacobian.shape, bits(rec.jacobian))


def assert_return_matches_reference(phi, event, physics) -> list:
    """Test-local: the kernel return equals its reference in every Jacobian mode; returns the outcomes."""
    outcomes = []
    for jacobian in JACOBIANS:
        got = return_outcome(propagate_to_landing, phi, event, physics, jacobian)
        assert got == return_outcome(reference_return, phi, event, physics, jacobian)
        outcomes.append(got)
    return outcomes


# pre-impact rows at the return's edges: under the plane with its apex below it, at rest
# on the plane (a racket without tilt sends it nowhere: disc = 0), and dropped from 60 m
RETURN_EDGES = {
    "negative_discriminant": ([0.2, 0.5, 0.5, 0.0, -0.1, -0.1], NegativeDiscriminant),
    "discriminant_at_floor": ([0.3, 0.6, Z_TABLE, 0.0, 0.0, 0.0], SingularGradient),
    "max_steps": ([0.0, 0.5, 60.0, 0.0, 0.0, 0.0], MaxStepsExceeded),
}


class TestReturnMatchesReference:
    """The kernel's grey-box return (ttr_return) against its scalar fixed-order reference, bit for bit."""

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 1.5), st.floats(0.5, 1.6),
                  st.floats(-3.0, 3.0), st.floats(-12.0, 2.0), st.floats(-6.0, 6.0)),
        st.floats(-np.pi, np.pi),
        st.floats(-1.2, 1.2),
        st.one_of(st.none(), st.tuples(*[st.floats(-5.0, 5.0)] * 6)),
        st.sampled_from(["truth", "model"]),
    )
    def test_pre_impact_states(self, xi_minus, theta1, theta4, dxi, which):
        event = InterceptionEvent(np.array(xi_minus), dxi)
        physics = {"truth": TRUTH, "model": MODEL}[which]
        assert_return_matches_reference(InterceptionPolicy(theta1, theta4), event, physics)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.31, 0.67), st.floats(-0.05, 0.45))
    def test_interceptions_at_truth_and_model(self, seed, theta1, theta4):
        # jittered launches intercepted in the policy box: the env's and the predictor's returns
        try:
            event = interception_event(launch(EnvConfig(), np.random.default_rng(seed)), theta1)
        except MissedBall:
            assume(False)
        for p in (TRUTH, MODEL):
            outcomes = assert_return_matches_reference(InterceptionPolicy(theta1, theta4), event, p)
            assert all(len(outcome) == 5 for outcome in outcomes[:2])

    @pytest.mark.parametrize("name", sorted(RETURN_EDGES))
    def test_edge_rows(self, name):
        row, error = RETURN_EDGES[name]
        event = InterceptionEvent(np.array(row), tuple(np.linspace(-1.0, 1.0, 6).tolist()))
        for p in (TRUTH, MODEL):
            kinds = [outcome[0] if len(outcome) == 2 else None for outcome in
                     assert_return_matches_reference(InterceptionPolicy(0.3, 0.0), event, p)]
            assert kinds == ([None, error, error] if error is SingularGradient else [error] * 3)

    def test_coupled_event_without_tangent(self, nominal_traj):
        event = interception_event(nominal_traj, 0.45)
        event.dxi_dtheta1 = None
        outcomes = assert_return_matches_reference(InterceptionPolicy(0.45, 0.2), event, MODEL)
        assert outcomes[2] == (SingularGradient, "crossing pair lies on the theta1 azimuth: no event tangent")
        assert len(outcomes[0]) == len(outcomes[1]) == 5


def import_in_child(root, code: str = "") -> subprocess.CompletedProcess:
    """Test-local: import the ttreturn under `root` in a fresh interpreter, run `code`
    with the module as `kernel`, and print the path of the loaded kernel."""
    script = (f"import sys; sys.path.insert(0, {str(root)!r})\n"
              "from ttreturn import kernel\n"
              f"assert kernel.__file__.startswith({str(root)!r})\n"
              f"{code}\n"
              "print(kernel.KERNEL._name)\n")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)


class TestKernelBuild:
    @pytest.fixture
    def package(self, tmp_path):
        shutil.copytree(pathlib.Path(ballistics.__file__).parent, tmp_path / "ttreturn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return tmp_path

    def libraries(self, package) -> list:
        return sorted((package / "ttreturn" / "__pycache__").glob("kernel*"))

    def test_built_once_then_reused_and_rebuilt_on_edit(self, package):
        first = import_in_child(package)
        assert first.returncode == 0, first.stderr
        [library] = self.libraries(package)
        assert first.stdout.split() == [str(library)]
        assert re.fullmatch(r"kernel-[0-9a-f]{64}\.so", library.name)
        built = library.stat().st_mtime_ns
        again = import_in_child(package)
        assert again.stdout == first.stdout and self.libraries(package) == [library]
        assert library.stat().st_mtime_ns == built
        # editing either source builds a library of a new name; the old ones stay as they were
        names = [library]
        for source in ("flight.c", "mlp.c"):
            with open(package / "ttreturn" / source, "a") as f:
                f.write("/* edited */\n")
            edited = import_in_child(package)
            assert edited.returncode == 0, edited.stderr
            [rebuilt] = [path for path in self.libraries(package) if path not in names]
            assert edited.stdout.split() == [str(rebuilt)] and library.stat().st_mtime_ns == built
            names.append(rebuilt)

    def test_failed_build_raises_import_error_with_command_and_stderr(self, package):
        code = ("kernel.CC_COMMAND = (*kernel.CC_COMMAND, '-fno-such-option')\n"
                "try:\n"
                "    kernel.load_kernel()\n"
                "except ImportError as exc:\n"
                "    sys.exit(str(exc))")
        child = import_in_child(package, code)
        assert child.returncode == 1
        command, stderr = child.stderr.split("\n", 1)
        built = " ".join((*kernel.CC_COMMAND, "-fno-such-option", "-o "))
        assert command.startswith("cannot build the kernel library: " + built) and "-ffp-contract=off" in command
        assert command.endswith("/flight.c " + str(package / "ttreturn" / "mlp.c") + " -lm")
        assert "-fno-such-option" in stderr  # the compiler's own complaint
        # the import's own build is the only library, and no partial build is left
        assert [path.suffix for path in self.libraries(package)] == [".so"]

    def test_library_calls_scalar_libm_only(self):
        # libmvec's vector entries (_ZGV*) round differently from scalar exp; -O3 may
        # vectorize the row loops, and it must not reach for them
        if shutil.which("nm") is None:
            pytest.skip("nm is not installed")
        listed = subprocess.run(["nm", "-D", "--undefined-only", kernel.KERNEL._name],
                                capture_output=True, text=True, check=True, timeout=60).stdout
        symbols = [line.split()[-1].split("@")[0] for line in listed.splitlines() if line.strip()]
        assert "exp" in symbols
        assert [name for name in symbols if name.startswith("_ZGV")] == []
        # the training epoch's helper thread (mlp.c), built with -pthread
        assert {"pthread_create", "pthread_join", "pthread_sigmask"} <= set(symbols)

    def test_pointer_checks_the_array(self):
        read_only = np.zeros(4)
        read_only.flags.writeable = False
        for bad in (np.zeros(4, dtype=np.float32), np.zeros(8)[::2], read_only, np.zeros(4, dtype=np.int64)):
            with pytest.raises(ValueError, match="^the kernel reads a C-contiguous writable float64 array$"):
                kernel.pointer(bad)
        with pytest.raises(ValueError, match="int64 array$"):
            kernel.pointer(np.zeros(4), np.int64)
        assert kernel.pointer(np.arange(3.0))[2] == 2.0 and kernel.pointer(np.arange(3), np.int64)[1] == 1

    def test_sources_compile_without_warnings(self, tmp_path):
        # the build command itself has no warning flags, so that the library's hash stays put
        sources = sorted(str(path) for path in pathlib.Path(kernel.__file__).parent.glob("*.c"))
        command = [*kernel.CC_COMMAND, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "lib.so"), *sources, "-lm"]
        built = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert (built.returncode, built.stderr) == (0, "")

    def test_every_entry_is_declared_with_its_c_types(self):
        # ctypes passes an undeclared argument as a C int and reads an undeclared result as
        # one, which would narrow an int64_t; every ttr_* definition must be declared as written
        types = {"double": ctypes.c_double, "int64_t": ctypes.c_int64, "void": None,
                 "double *": ctypes.POINTER(ctypes.c_double), "int64_t *": ctypes.POINTER(ctypes.c_int64)}

        def c_type(param: str) -> str:  # "const double *rig" -> "double *"
            return " ".join(word for word in param.replace("*", " * ").split()[:-1] if word != "const")

        definition = re.compile(r"^(?!static)(\w+) (ttr_\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
        entries = {name: (returned, [c_type(param) for param in params.split(",")])
                   for path in sorted(pathlib.Path(kernel.__file__).parent.glob("*.c"))
                   for returned, name, params in definition.findall(path.read_text())}
        assert {"ttr_flight", "ttr_return", "ttr_returns", "ttr_crossings", "ttr_mlp", "ttr_adam_epoch"} <= set(entries)
        for name, (returned, params) in entries.items():
            entry = getattr(kernel.KERNEL, name)
            assert entry.restype is types[returned], name
            assert entry.argtypes is not None and list(entry.argtypes) == [types[p] for p in params], name
