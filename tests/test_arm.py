"""Interception geometry, racket orientation and racket velocity."""

import pathlib
import shutil
import subprocess
import sys
from math import atan2, cos, pi, sin, sqrt

import numpy as np
import pytest

from ttreturn import arm
from ttreturn.arm import (
    BASE,
    REST_AZIMUTH,
    THETA1_DOT,
    InterceptionEvent,
    InterceptionPolicy,
    crossings,
    interception_event,
    racket_rotation,
    racket_rotation_jacobian,
    racket_velocity,
)
from ttreturn.env import EnvConfig, SampledTrajectory, launch
from ttreturn.errors import MissedBall, NoCrossing, OutOfReach
from ttreturn.harness import nominal_trajectory

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def base_azimuth(x: float, y: float) -> float:
    """Test-local oracle: the azimuth of the horizontal position (x, y) seen from the base
    pivot, zero along REST_AZIMUTH and counterclockwise about +z, wrapped to [-pi, pi)
    with Python's float modulo (math.atan2, as the kernel's libm atan2)."""
    return (atan2(y - arm.BASE[1], x - arm.BASE[0]) - arm.REST_AZIMUTH + pi) % (2.0 * pi) - pi


@np.errstate(invalid="ignore", over="ignore")  # an overflowed launch's inf/NaN samples only miss
def python_interception_event(incoming, theta1: float) -> InterceptionEvent:
    """Test-local oracle: the Python crossing search that the kernel's ttr_crossings
    replaced, kept as it was but for reading the rows as a list. Same arguments,
    return value and errors as arm.interception_event; it reads arm's constants."""
    bx, by, bz = arm.BASE.tolist()
    rows = incoming.rows.tolist()
    xy = np.array([rows[0::6], rows[1::6]])
    c = cos(arm.REST_AZIMUTH + theta1) * (xy[1] - by) - sin(arm.REST_AZIMUTH + theta1) * (xy[0] - bx)
    c = np.minimum(np.maximum(c, -arm.CROSS_TOL), arm.CROSS_TOL)
    pairs = (c[:-1] * c[1:] < arm.CROSS_TOL**2).nonzero()[0]

    tau = 2.0 * pi
    az = lambda i: base_azimuth(rows[6 * i], rows[6 * i + 1])
    wrap = lambda angle: (angle + pi) % tau - pi

    for idx in pairs.tolist():
        za, zb = az(idx), az(idx + 1)
        a, b = wrap(za - theta1), wrap(zb - theta1)
        if not abs(b - a) > pi and (a == 0.0 or a * b < 0.0 or b == 0.0):
            break
    else:
        raise NoCrossing(f"ball path never reaches base azimuth {theta1:.3f} rad")
    u = 0.0 if a == 0.0 else a / (a - b)

    row, after = rows[6 * idx : 6 * idx + 6], rows[6 * idx + 6 : 6 * idx + 12]
    xi = [p + u * (q - p) for p, q in zip(row, after)]
    span = wrap(za - zb)  # a - b, free of theta1
    dxi = None if a == b or span == 0.0 else tuple([(p - q) / span for p, q in zip(row, after)])
    dx, dy, dz = xi[0] - bx, xi[1] - by, xi[2] - bz

    dist = sqrt(dx * dx + dy * dy + dz * dz)
    lo, hi = arm.REACH
    if not (lo <= dist <= hi):
        raise OutOfReach(f"target at {dist:.3f} m outside reach [{lo:.3f}, {hi:.3f}] m")
    return InterceptionEvent(np.array(xi), dxi)


def straight_trajectory(p0, v, n=200, dt=0.002):
    """Constant-velocity sampled trajectory."""
    times = np.arange(n) * dt
    v = np.asarray(v, dtype=float)
    pos = np.asarray(p0, dtype=float) + times[:, None] * v
    return SampledTrajectory(np.hstack([pos, np.tile(v, (n, 1))]).ravel().tolist())


def polyline_trajectory(corners, per_leg=50, z=float(BASE[2])):
    """Horizontal path through the given (x, y) corners at height z."""
    pts = [np.linspace(a, b, per_leg, endpoint=False) for a, b in zip(corners, corners[1:])]
    xy = np.vstack(pts + [np.array(corners[-1:], dtype=float)])
    rows = np.column_stack([xy, np.full(len(xy), z), np.zeros((len(xy), 3))])
    return SampledTrajectory(rows.ravel().tolist())


def shifted(traj, dx, dy):
    """The trajectory translated horizontally by (dx, dy): seen from BASE, the
    same path as seen from a base moved by (-dx, -dy)."""
    states = np.array(traj.rows).reshape(-1, 6) + [dx, dy, 0.0, 0.0, 0.0, 0.0]
    return SampledTrajectory(states.ravel().tolist())


def reference_event(traj, theta1, l1=0.5, l2=0.45):
    """Test-local whole-trajectory mask scan: the base azimuth of every sample,
    then the first pair that is no wrap jump and starts on, ends on or
    straddles theta1. Returns the interpolated pre-impact state, checked
    against the reach of links l1 and l2."""
    states = np.array(traj.rows).reshape(-1, 6)
    d = states[:, :3] - BASE
    az = np.mod(np.arctan2(d[:, 1], d[:, 0]) - REST_AZIMUTH + pi, 2.0 * pi) - pi
    rel = np.mod(az - theta1 + pi, 2.0 * pi) - pi
    a, b = rel[:-1], rel[1:]
    hit = ~(np.abs(b - a) > pi) & ((a == 0.0) | (a * b < 0.0) | (b == 0.0))
    if not hit.any():
        raise NoCrossing("reference")
    idx = int(hit.argmax())
    u = 0.0 if a[idx] == 0.0 else a[idx] / (a[idx] - b[idx])
    xi = states[idx] + u * (states[idx + 1] - states[idx])
    dist = float(np.linalg.norm(xi[:3] - BASE))
    if not (abs(l1 - l2) + 0.01 <= dist <= l1 + l2 - 0.01):
        raise OutOfReach("reference")
    return xi


def outcome_matches_reference(traj, theta1):
    """Assert both scans end alike; return the exception type or None."""
    try:
        ref = reference_event(traj, theta1)
    except MissedBall as exc:
        with pytest.raises(type(exc)):
            interception_event(traj, theta1)
        return type(exc)
    ev = interception_event(traj, theta1)
    np.testing.assert_allclose(ev.xi_minus, ref, rtol=0, atol=1e-12)
    return None


class TestInterceptionOracle:
    def test_matches_mask_scan_over_jittered_launches(self):
        # triple jitter for a wider spread of paths; theta1 spans the policy
        # box (0.26, 0.72) and well beyond it, both sides of the base; every
        # fourth path is moved off centre, as if the base stood at (0.05, -0.1)
        cfg = EnvConfig(jitter_std=3.0 * EnvConfig().jitter_std)
        thetas = np.r_[np.linspace(-0.6, 1.6, 23), -pi, -pi / 2, pi / 2, 3.0]
        rng = np.random.default_rng(11)
        seen = {}
        for n in range(200):
            traj = launch(cfg, rng)
            traj = shifted(traj, -0.05, 0.1) if n % 4 == 3 else traj
            for theta1 in thetas:
                kind = outcome_matches_reference(traj, float(theta1))
                seen[kind] = seen.get(kind, 0) + 1
        assert set(seen) == {None, NoCrossing, OutOfReach}

    def test_sample_exactly_on_the_azimuth(self):
        # base at the origin facing +y: theta1 = 0 is the +y ray, which the
        # fourth sample sits on exactly
        traj = polyline_trajectory([(0.3, 0.6), (0.0, 0.6), (-0.3, 0.6)], per_leg=3)
        assert traj.rows[18:20].tolist() == [0.0, 0.6]
        assert outcome_matches_reference(traj, 0.0) is None
        ev = interception_event(traj, 0.0)
        np.testing.assert_array_equal(ev.xi_minus, traj.rows[18:24])
        np.testing.assert_array_equal(ev.xi_minus[:3], [0.0, 0.6, BASE[2]])
        # starting on the azimuth intercepts at the first sample
        start = polyline_trajectory([(0.0, 0.6), (-0.3, 0.6)])
        np.testing.assert_array_equal(interception_event(start, 0.0).xi_minus, start.rows[:6])

    def test_wrap_jump_is_no_crossing(self):
        # crossing the opposite ray (-y) flips the azimuth from +pi to -pi;
        # that pair is skipped and the later +y crossing is the event
        behind = polyline_trajectory([(0.3, -0.6), (-0.3, -0.6)])
        with pytest.raises(NoCrossing):
            interception_event(behind, 0.0)
        assert outcome_matches_reference(behind, 0.0) is NoCrossing
        around = polyline_trajectory([(0.3, -0.6), (-0.3, -0.6), (-0.3, 0.6), (0.3, 0.6)])
        ev = interception_event(around, 0.0)
        np.testing.assert_allclose(ev.xi_minus[:3], [0.0, 0.6, BASE[2]], atol=1e-12)
        assert outcome_matches_reference(around, 0.0) is None

    @pytest.mark.parametrize("theta1", [0.0, pi, -pi, 0.3, -0.3, pi / 2])
    @pytest.mark.parametrize("y0,vy", [(0.8, -0.5), (3.0, -0.1), (1.0, -4.0), (-0.8, 0.5)])
    def test_straight_lines_along_base_x(self, theta1, y0, vy):
        # every sample lies on the theta1 = 0 ray or on its opposite, where
        # the half-plane sign is a rounding residue; (1.0, -4.0) passes
        # through the base pivot itself
        traj = straight_trajectory([BASE[0], y0, BASE[2]], [0.0, vy, 0.0], n=300)
        outcome_matches_reference(traj, theta1)


def bits(values) -> list:
    """Test-local: the IEEE bit patterns of floats, so that NaNs and signed zeros compare too."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def search_outcome(search, traj, theta1):
    """Test-local: an interception event as bit patterns (xi_minus, its type, dxi_dtheta1),
    or its MissedBall's type and message."""
    try:
        ev = search(traj, theta1)
    except MissedBall as exc:
        return type(exc), str(exc)
    dxi = ev.dxi_dtheta1
    assert dxi is None or (len(dxi) == 6 and all(type(d) is float for d in dxi))
    return bits(ev.xi_minus), ev.xi_minus.shape, None if dxi is None else bits(dxi)


def assert_search_matches_oracle(traj, thetas):
    """The kernel search, one policy (interception_event) and a block (crossings), against
    the Python oracle bit for bit: events, errors and messages, and the block's hit mask
    where the oracle raises no MissedBall. Returns the outcome kinds."""
    xi, hit = crossings(traj, thetas)
    assert xi.shape == (len(thetas), 6) and hit.shape == (len(thetas),) and hit.dtype == bool
    kinds = []
    for theta1, row, ok in zip(thetas, xi, hit.tolist()):
        want = search_outcome(python_interception_event, traj, theta1)
        assert search_outcome(interception_event, traj, theta1) == want
        assert ok == (want[0] not in (NoCrossing, OutOfReach))
        if ok:
            assert bits(row) == want[0]
        kinds.append(want[0] if want[0] in (NoCrossing, OutOfReach) else None)
    return kinds


# trajectories at the edges of the search, beside the jittered launches
SPECIAL_TRAJECTORIES = {
    # base at the origin facing +y: the fourth sample sits exactly on the theta1 = 0 ray
    "on_the_azimuth": lambda: polyline_trajectory([(0.3, 0.6), (0.0, 0.6), (-0.3, 0.6)], per_leg=3),
    # crossing the opposite ray (-y) flips the azimuth from +pi to -pi: a wrap jump, then +y
    "wrap_jump": lambda: polyline_trajectory([(0.3, -0.6), (-0.3, -0.6), (-0.3, 0.6), (0.3, 0.6)]),
    # radially out along the theta1 = 0 ray: consecutive samples of equal azimuth
    "equal_azimuths": lambda: straight_trajectory([0.0, 0.1, float(BASE[2])], [0.0, 1.0, 0.0], n=400),
    # crossings nearer than the folded arm and farther than the stretched one
    "too_near": lambda: straight_trajectory([0.5, 0.02, float(BASE[2])], [-2.0, 0.0, 0.0], n=400),
    "too_far": lambda: straight_trajectory([1.5, 1.5, float(BASE[2])], [-2.0, 0.0, 0.0], n=1000),
    # the overflowed launch of tests/test_cli.py: inf and NaN samples from the first step on
    "overflowed": lambda: launch(EnvConfig(nominal_state=np.array([-0.15, 3.9, 1.1, 1e160, 0.0, 3.3])),
                                 np.random.default_rng(0)),
    "empty": lambda: SampledTrajectory([]),
    "one_sample": lambda: SampledTrajectory([0.0, 0.6, 0.8, 0.0, -1.0, 0.0]),
}
# theta1 across [-pi, 3], both sides of the base, and the exact azimuths of the special paths
THETAS = [*np.linspace(-pi, 3.0, 41).tolist(), -pi / 2, 0.0, pi / 2, pi, -0.0, 1e-300, np.nan]


def shifted_base(monkeypatch_context, shift: bool):
    """The arm's pivot moved off centre to (0.05, -0.1) when `shift`; the kernel and the oracle
    read BASE on each call."""
    if shift:
        monkeypatch_context.setattr(arm, "BASE", np.array([0.05, -0.1, 0.8]))


class TestInterceptionStatesOracle:
    """The kernel's crossing search (ttr_crossings) against the Python search it replaced,
    bit for bit: one policy through interception_event and a block through crossings."""

    def test_matches_scalar_event_over_jittered_launches(self):
        cfg = EnvConfig(jitter_std=3.0 * EnvConfig().jitter_std)
        rng = np.random.default_rng(21)
        thetas = [*rng.uniform(-pi, 3.0, 71).tolist(), -pi, -pi / 2, pi / 2, 3.0, np.nan]
        seen = set()
        for n in range(12):
            traj = launch(cfg, rng)
            seen |= set(assert_search_matches_oracle(shifted(traj, -0.05, 0.1) if n % 4 == 3 else traj, thetas))
        assert seen == {None, NoCrossing, OutOfReach}

    def test_exact_sample_and_wrap_jump(self):
        # and the other special paths, seen from the pivot where it is and moved off centre
        for shift in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                shifted_base(mp, shift)
                for factory in SPECIAL_TRAJECTORIES.values():
                    assert_search_matches_oracle(factory(), THETAS)

    def test_special_trajectories_reach_their_branches(self):
        outcome = lambda name, theta1: search_outcome(interception_event, SPECIAL_TRAJECTORIES[name](), theta1)
        assert outcome("on_the_azimuth", 0.0)[2] is not None
        assert outcome("equal_azimuths", 0.0)[2] is None  # a == b == 0: no theta1 slope
        assert outcome("too_near", 0.0)[0] is OutOfReach and outcome("too_far", 0.0)[0] is OutOfReach
        assert "target at 0.020 m outside reach [0.060, 0.940] m" == outcome("too_near", 0.0)[1]
        assert outcome("overflowed", 0.45)[0] in (NoCrossing, OutOfReach)
        assert outcome("wrap_jump", 0.0)[0] not in (NoCrossing, OutOfReach)
        assert outcome("empty", 0.3) == (NoCrossing, "ball path never reaches base azimuth 0.300 rad")

    def test_empty_block(self, nominal_traj):
        xi, hit = crossings(nominal_traj, np.zeros(0))
        assert xi.shape == (0, 6) and hit.shape == (0,) and hit.dtype == bool

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["aimed", "unaimed", "nominal"]), st.integers(0, 2**32 - 1),
           st.floats(-pi, 3.0), st.floats(0.0, 3.0), st.booleans())
    @example("aimed", 5, 0.66, 1.0, False)
    @example("nominal", 0, 0.45, 1.0, True)
    def test_property_matches_python_search(self, source, seed, theta1, jitter, shift):
        cfg = EnvConfig(jitter_std=jitter * EnvConfig().jitter_std)
        with pytest.MonkeyPatch.context() as mp:
            shifted_base(mp, shift)
            if source == "nominal":
                traj = nominal_trajectory(EnvConfig())
            else:
                traj = launch(cfg, np.random.default_rng(seed), aim=theta1 if source == "aimed" else None)
            assert_search_matches_oracle(traj, [theta1, -theta1, theta1 - pi / 2])


def test_plain_fmod_fails_the_search_property(tmp_path):
    # mutation check: a kernel whose modulo is a plain fmod, without Python's sign fix,
    # must differ from the oracle on the cases above; built and run in a child process
    shutil.copytree(pathlib.Path(arm.__file__).parent, tmp_path / "ttreturn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "ttreturn" / "flight.c"
    text = source.read_text()
    body = text[text.index("static double py_mod("):]
    body = body[: body.index("\n}\n") + 3]
    source.write_text(text.replace(body, "static double py_mod(double x, double m)\n{\n    return fmod(x, m);\n}\n"))
    script = (f"import sys; sys.path[:0] = [{str(tmp_path)!r}, {str(pathlib.Path(__file__).parent)!r}]\n"
              "import test_arm\n"
              f"assert test_arm.arm.__file__.startswith({str(tmp_path)!r})\n"
              "cases = [test_arm.nominal_trajectory(test_arm.EnvConfig())]\n"
              "cases += [factory() for factory in test_arm.SPECIAL_TRAJECTORIES.values()]\n"
              "try:\n"
              "    for traj in cases:\n"
              "        test_arm.assert_search_matches_oracle(traj, test_arm.THETAS)\n"
              "except AssertionError:\n"
              "    print('differs')\n"
              "else:\n"
              "    print('agrees')\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert (child.returncode, child.stdout) == (0, "differs\n"), child.stderr


class TestInterceptionEvent:
    def test_straight_path_crossing_time(self):
        # ball flying along -y at a fixed x offset sweeps the azimuth toward
        # -pi/2; the crossing point and time have a closed form, and at constant
        # velocity the time is where the interpolated state lies on the path
        theta1 = -0.8
        traj = straight_trajectory([0.5, 2.0, 1.0], [0.0, -2.0, 0.0], n=600)
        ev = interception_event(traj, theta1)
        y_star = 0.5 * np.tan(theta1 + pi / 2)
        t_star = (2.0 - y_star) / 2.0
        assert (2.0 - ev.xi_minus[1]) / 2.0 == pytest.approx(t_star, abs=1e-3)
        assert ev.xi_minus[1] == pytest.approx(y_star, abs=2e-3)
        np.testing.assert_array_equal(ev.xi_minus[[0, 2, 3, 4, 5]], [0.5, 1.0, 0.0, -2.0, 0.0])

    def test_cached_azimuth_follows_geometry(self, nominal_traj):
        # the kernel reads a trajectory's samples in place and keeps nothing between
        # searches: every later event must equal the one from a fresh trajectory
        traj = SampledTrajectory(nominal_traj.rows)
        for theta1 in (0.45, 0.30, 0.60, 0.45):
            fresh = interception_event(SampledTrajectory(nominal_traj.rows), theta1).xi_minus
            np.testing.assert_array_equal(interception_event(traj, theta1).xi_minus, fresh)

    def test_interpolated_crossing(self, nominal_traj):
        theta1 = 0.45
        ev = interception_event(nominal_traj, theta1)
        az = base_azimuth(ev.xi_minus[0], ev.xi_minus[1])
        # azimuth is nonlinear in position, so linear state interpolation
        # leaves a small residual at the crossing
        assert az == pytest.approx(theta1, abs=1e-4)
        # dense re-sampling reference for the crossing state
        states = np.array(nominal_traj.rows).reshape(-1, 6)
        azs = np.array([base_azimuth(x, y) for x, y in states[:, :2].tolist()]) - theta1
        idx = np.nonzero((azs[:-1] <= 0) & (azs[1:] > 0))[0][0]
        u = -azs[idx] / (azs[idx + 1] - azs[idx])
        xi_ref = states[idx] + u * (states[idx + 1] - states[idx])
        np.testing.assert_allclose(ev.xi_minus, xi_ref, rtol=0, atol=1e-9)

    def test_monotone_in_theta1(self, nominal_traj):
        # the ball flies toward -y throughout, so a later crossing lies at a smaller y
        ys = [
            interception_event(nominal_traj, t1).xi_minus[1]
            for t1 in (0.30, 0.40, 0.50, 0.60, 0.70)
        ]
        assert all(a > b for a, b in zip(ys, ys[1:]))
        assert np.all(np.array(nominal_traj.rows[4::6]) < 0.0)

    def test_no_crossing(self, nominal_traj):
        with pytest.raises(NoCrossing):
            interception_event(nominal_traj, -0.5)

    def test_out_of_reach(self):
        traj = straight_trajectory([0.0, 3.0, 1.0], [0.0, -0.1, 0.0], n=10)
        with pytest.raises(OutOfReach):
            interception_event(traj, 0.0)

    def test_theta1_tangent_of_the_crossing(self, nominal_traj):
        # within one crossing pair xi_minus is linear in theta1: dxi_dtheta1 is
        # its slope, and the same floats for every theta1 on that pair
        h = 1e-7
        for t1 in (0.30, 0.45, 0.60, 0.70):
            ev = interception_event(nominal_traj, t1)
            hi, lo = (interception_event(nominal_traj, t1 + d) for d in (h, -h))
            assert hi.dxi_dtheta1 == lo.dxi_dtheta1 == ev.dxi_dtheta1
            assert len(ev.dxi_dtheta1) == 6 and all(type(d) is float for d in ev.dxi_dtheta1)
            np.testing.assert_allclose(ev.dxi_dtheta1, (hi.xi_minus - lo.xi_minus) / (2 * h), rtol=0, atol=1e-7)


class TestRacketRotation:
    def test_rest_configuration(self):
        np.testing.assert_allclose(racket_rotation(InterceptionPolicy(0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_quarter_turn(self):
        g = racket_rotation(InterceptionPolicy(pi / 2, 0.0))
        np.testing.assert_allclose(g @ np.array([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("theta1", [-3.0, -2.0, -0.5, 0.0, 0.26, 0.45, 0.72, pi / 2, 2.5])
    def test_normal_points_along_base_azimuth(self, theta1):
        # the impact model's racket normal is +y at rest; base azimuths are measured
        # from REST_AZIMUTH, so the yawed normal points along the azimuth theta1
        normal = racket_rotation(InterceptionPolicy(theta1, 0.0)) @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(normal, [cos(REST_AZIMUTH + theta1), sin(REST_AZIMUTH + theta1), 0.0],
                                   rtol=0, atol=1e-15)
        # the base pivot stands above the origin, so the normal's azimuth is the base azimuth
        assert base_azimuth(normal[0], normal[1]) == pytest.approx(
            (theta1 + pi) % (2 * pi) - pi, abs=1e-12)

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
        return type("E", (), {"xi_minus": np.r_[pos, 0.0, 0.0, 0.0].astype(float)})()

    def test_tangential_velocity(self):
        # base pivot (0, 0, 0.8), yaw rate 6 rad/s
        v = racket_velocity(self._event([0.7, 0.0, 1.3]))
        np.testing.assert_allclose(v, [0.0, 4.2, 0.0], atol=1e-12)

    def test_zero_lever_arm(self):
        v = racket_velocity(self._event(BASE))
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_speed_proportional_to_horizontal_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pos = BASE + rng.normal(size=3)
            v = racket_velocity(self._event(pos))
            d_h = np.linalg.norm((pos - BASE)[:2])
            assert np.linalg.norm(v) == pytest.approx(THETA1_DOT * d_h, abs=1e-12)

