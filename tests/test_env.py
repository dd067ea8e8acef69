"""Simulated environment: launches, interceptions, noise, scatter estimate."""

import copy
import re
from contextlib import suppress
from dataclasses import FrozenInstanceError, replace
from math import atan, atan2, cos, pi, sin

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

import ttreturn.ballistics
import ttreturn.env
from ttreturn.arm import BASE, REST_AZIMUTH, InterceptionPolicy, interception_event
from ttreturn.ballistics import TABLE_CENTER, TABLE_HALF, Z_TABLE, Physics, euler_flight, propagate_to_landing
from ttreturn.env import (
    EnvConfig,
    LAUNCH_STEPS,
    SAMPLE_DT,
    SampledTrajectory,
    TRUTH,
    Y_PAST,
    estimate_variance,
    intercept,
    launch,
    stop_past,
)
from ttreturn.errors import InfeasibleRegion, MissedBall, NegativeDiscriminant, NoCrossing, OutOfReach, SingularGradient
from ttreturn.greybox import MODEL, predict_landing, predict_landing_with_gradient
from ttreturn.harness import SCENARIO_BOX


def on_table(point: np.ndarray) -> bool:
    """Test-local: whether a horizontal point lies within the table footprint."""
    return bool(np.all(np.abs(np.asarray(point)[:2] - TABLE_CENTER) <= TABLE_HALF))


def states(traj):
    """(n, 6) state array of a sampled trajectory."""
    return np.array(traj.rows).reshape(-1, 6)


class TestOnTable:
    def test_center_and_corners(self):
        corner = np.add(TABLE_CENTER, TABLE_HALF)
        assert on_table(TABLE_CENTER)
        assert on_table(corner)
        assert not on_table(corner + 0.01)

    def test_far_point(self):
        assert not on_table(np.array([10.0, 10.0]))


class TestLaunch:
    def test_deterministic_given_seed(self, env_cfg):
        a = launch(env_cfg, np.random.default_rng(3))
        b = launch(env_cfg, np.random.default_rng(3))
        assert a.rows.tolist() == b.rows.tolist()

    def test_rows_are_six_n_floats_that_the_kernel_reads_in_place(self):
        with pytest.raises(ValueError, match=r"^rows must be 6 n floats, got shape \(5,\)$"):
            SampledTrajectory([0.0] * 5)
        given = np.arange(12.0)
        traj = SampledTrajectory(given)
        given[0] = -1.0  # the trajectory holds its own copy
        assert len(traj) == 2 and traj.rows.dtype == np.float64 and traj.rows.tolist() == list(range(12))
        traj.rows[0] = 7.0  # rows is a view of the samples the crossing search reads
        assert traj.samples[0] == 7.0

    def test_launch_adopts_the_buffer_the_kernel_wrote(self, env_cfg):
        # no second copy: the samples are euler_flight's buffer, which may hold room for more
        for aim in (None, 0.0):
            traj = launch(env_cfg, np.random.default_rng(2), aim)
            assert traj.rows.base is traj.samples and len(traj.samples) >= 6 * len(traj)
            assert np.frombuffer(traj.samples, count=len(traj.rows)).tolist() == traj.rows.tolist()

    def test_zero_jitter_starts_at_nominal(self, noiseless_env_cfg):
        traj = launch(noiseless_env_cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(
            states(traj)[0], noiseless_env_cfg.nominal_state
        )

    def test_uniform_sample_spacing(self, env_cfg):
        # consecutive samples are one Euler step of SAMPLE_DT apart
        s = states(launch(env_cfg, np.random.default_rng(1)))
        np.testing.assert_allclose(
            s[1:, :3], s[:-1, :3] + SAMPLE_DT * s[:-1, 3:], rtol=0, atol=1e-12
        )

    def test_jitter_spreads_initial_state(self, env_cfg):
        starts = np.array(
            [
                states(launch(env_cfg, np.random.default_rng(s)))[0]
                for s in range(200)
            ]
        )
        emp = starts.std(axis=0)
        np.testing.assert_allclose(emp, env_cfg.jitter_std, rtol=0.25)

    def test_trajectory_descends_through_workspace(self, noiseless_env_cfg):
        traj = launch(noiseless_env_cfg, np.random.default_rng(0))
        # ball must pass through the reachable band around the arm base
        d = np.linalg.norm(states(traj)[:, :3] - BASE, axis=1)
        assert d.min() < 0.9


def reference_launch(cfg, rng):
    """Test-local launch: one 6-state per sample, each a single euler_flight step at TRUTH's drag."""
    jitter = rng.normal(0.0, 1.0, size=6) * cfg.jitter_std
    state = cfg.nominal_state + jitter
    times, rows, t = [0.0], [state], 0.0
    while t < 3.0:
        state = np.array(euler_flight(state.tolist(), TRUTH.k_drag, SAMPLE_DT, 1, y_stop=-np.inf)[0])
        t += SAMPLE_DT
        times.append(t)
        rows.append(state)
        hit_table = state[2] <= Z_TABLE and on_table(state)
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
        cfg = EnvConfig(nominal_state=np.array(nominal))
        for seed in range(3):
            traj = launch(cfg, np.random.default_rng(seed))
            times, ref = reference_launch(cfg, np.random.default_rng(seed))
            assert len(traj) == len(times)
            assert np.max(np.abs(states(traj) - ref)) <= 1e-12
        last = states(traj)[-1]
        reached = {
            "y_stop": last[1] <= -1.2,
            "table": last[2] <= Z_TABLE and on_table(last),
            "floor": last[2] <= 0.0,
            "t_max": times[-1] >= 3.0,
        }
        assert [name for name, hit in reached.items() if hit] == [stop]
        # the reference's own accumulated clock checks the step cap
        assert (len(traj) - 1 == LAUNCH_STEPS) == (stop == "t_max")


def event_or_error(traj, theta1):
    """interception_event's fields as plain values, or the type of what it raised."""
    try:
        e = interception_event(traj, theta1)
    except Exception as exc:  # the aimed and the full launch must fail alike, whatever the failure
        return type(exc)
    return e.xi_minus.tolist(), e.dxi_dtheta1


def aimed_and_full(cfg, theta1, seed=0):
    """The aimed launch and the unaimed one of the same rng seed."""
    aimed = launch(cfg, np.random.default_rng(seed), aim=theta1)
    return aimed, launch(cfg, np.random.default_rng(seed))


def is_window(aimed, full):
    """Whether the aimed rows are a contiguous run of whole samples of the full rows."""
    aimed, full = aimed.rows.tolist(), full.rows.tolist()
    return any(full[off : off + len(aimed)] == aimed for off in range(0, len(full) - len(aimed) + 1, 6))


def ray_direction(theta1):
    """Horizontal unit vector of the base azimuth theta1."""
    return np.array([cos(REST_AZIMUTH + theta1), sin(REST_AZIMUTH + theta1)])


# across the box and beyond: negative, near +-pi/2, and rays opposite the ball (|theta1| > pi/2)
THETA1_GRID = (-3.0, -2.0, -pi / 2 - 1e-9, -pi / 2 + 1e-9, -1.0, -0.4, -0.05, 0.0, 0.1, 0.26, 0.35,
               0.45, 0.55, 0.62, 0.72, 0.85, 1.0, 1.3, pi / 2 - 1e-9, pi / 2 + 1e-9, 2.0, 2.8, pi - 1e-9, 3.1)

# zero-jitter starts with a real stop at the edges of the keep rule: the crossing within
# the first step, so the start is kept, or the floor, the table or the step cap before
# y_keep, so the stop state is the one sample
WINDOW_EXITS = {
    "crossing_in_first_step": ((-0.15, 3.9, 1.1, 0.0, -8.3, 3.3), atan(0.15 / 3.89)),
    "floor": ((-0.15, 3.9, 1.1, 0.0, -1.0, -5.0), 0.45),
    "table": ((-1.0, 1.5, 0.8, 0.0, -8.3, -2.0), 1.2),
    "step_cap": ((-0.15, 3.9, 6.0, 0.0, -0.5, 20.0), 0.45),
}


# launches that end on the table or on the floor before they reach the arm
CONTACT_CONFIGS = {"table": (-0.6, 3.9, 1.1, 0.0, -8.3, 0.0), "floor": (0.3, 3.9, 1.1, 0.0, -8.3, -2.0)}


def two_call_launch(cfg, rng, aim=None):
    """Test-local launch rows as two kernel calls fly them: unsampled to y_keep, where
    a floor or table stop state is the one sample, then sampled from there to y_stop."""
    start = (cfg.nominal_state + rng.normal(0.0, 1.0, size=6) * cfg.jitter_std).tolist()
    y_stop = Y_PAST if aim is None else stop_past(start, aim)
    y_keep, steps = y_stop - 4.0 * SAMPLE_DT * start[4] + 2e-3, LAUNCH_STEPS
    if y_stop > Y_PAST and start[1] > y_keep:
        stop, n, _, _ = euler_flight(start, TRUTH.k_drag, SAMPLE_DT, steps, y_keep)
        start, steps = list(stop), steps - n
        if stop[2] <= 0.0 or (stop[2] <= Z_TABLE and on_table(stop)):
            return start
    rows = list(start)
    for _ in range(steps):
        stop = euler_flight(rows[-6:], TRUTH.k_drag, SAMPLE_DT, 1, y_stop)[0]
        rows.extend(stop)
        if stop[2] <= 0.0 or stop[1] <= y_stop or (stop[2] <= Z_TABLE and on_table(stop)):
            break
    return rows


class TestLaunchWindowOracle:
    # the one-call launch keeps the rows of the two-call one, exactly, window start included
    @pytest.mark.parametrize("scale", [1.0, 3.0], ids=["1x", "3x"])
    def test_jittered_launches(self, env_cfg, scale):
        cfg = replace(env_cfg, jitter_std=scale * env_cfg.jitter_std)
        for seed in range(6):
            for aim in (None, *THETA1_GRID):
                want = two_call_launch(cfg, np.random.default_rng(seed), aim)
                assert launch(cfg, np.random.default_rng(seed), aim).rows.tolist() == want

    @pytest.mark.parametrize("name", list(WINDOW_EXITS))
    def test_window_exits(self, name):
        nominal, t1 = WINDOW_EXITS[name]
        cfg = EnvConfig(nominal_state=np.array(nominal), jitter_std=np.zeros(6))
        for aim in (None, t1):
            want = two_call_launch(cfg, np.random.default_rng(0), aim)
            assert launch(cfg, np.random.default_rng(0), aim).rows.tolist() == want

    @pytest.mark.parametrize("name", list(CONTACT_CONFIGS))
    @pytest.mark.parametrize("scale", [1.0, 3.0], ids=["1x", "3x"])
    def test_contact_configs(self, name, scale):
        cfg = EnvConfig(nominal_state=np.array(CONTACT_CONFIGS[name]))
        cfg.jitter_std = scale * cfg.jitter_std
        lengths = set()
        for seed in range(4):
            for aim in (None, *THETA1_GRID):
                rows = launch(cfg, np.random.default_rng(seed), aim).rows.tolist()
                assert rows == two_call_launch(cfg, np.random.default_rng(seed), aim)
                lengths.add(len(rows) // 6)
        assert 1 in lengths and max(lengths) > 1  # a one-sample stop before the window, and full flights


class TestAimedLaunch:
    def test_matches_the_full_launch(self, env_cfg, monkeypatch):
        # 12 jittered launches per theta1, 288 in all: the aimed samples are a window
        # of the full ones, with the same event (or miss) and the same landing
        shorter, kinds = [], set()
        cases = [(seed, t1) for seed in range(12) for t1 in THETA1_GRID]
        for seed, t1 in cases:
            aimed, full = aimed_and_full(env_cfg, t1, seed)
            assert is_window(aimed, full)
            got = event_or_error(aimed, t1)
            assert got == event_or_error(full, t1)
            kinds.add(got if isinstance(got, type) else "event")
            if 0.26 <= t1 <= 0.72:
                shorter.append(len(aimed) < 0.7 * len(full))
        assert all(shorter) and kinds == {"event", NoCrossing, OutOfReach}

        def landings():
            out = []
            for seed, t1 in cases:
                try:
                    phi = InterceptionPolicy(t1, 0.2)
                    r, event = intercept(phi, env_cfg, np.random.default_rng(seed))
                    out.append((r.tolist(), propagate_to_landing(phi, event, TRUTH).landing_point.tolist()))
                except MissedBall as exc:
                    out.append(type(exc))
            return out

        aimed_landings = landings()
        monkeypatch.setattr(ttreturn.env, "launch", lambda cfg, rng, aim=None: launch(cfg, rng))
        assert aimed_landings == landings()

    @pytest.mark.parametrize("nominal,jitter", [((-0.15, 3.9, 1.1, 0.0, 0.0, 3.3), np.zeros(6)),
                                                ((0.4, -0.6, 1.1, -0.5, 6.0, 3.3), EnvConfig().jitter_std)],
                             ids=["vy0_zero", "vy0_positive"])
    def test_upward_start_flies_the_full_path(self, env_cfg, nominal, jitter):
        cfg = EnvConfig(nominal_state=np.array(nominal), jitter_std=jitter)
        for t1 in THETA1_GRID:
            assert stop_past(list(nominal), t1) == Y_PAST
            aimed, full = aimed_and_full(cfg, t1)
            assert aimed.rows.tolist() == full.rows.tolist()

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["toward_base", "away_from_base"])
    def test_start_parallel_to_the_ray_flies_the_full_path(self, env_cfg, sign):
        t1 = 0.45
        vx, vy = sign * 8.3 * ray_direction(t1)
        cfg = EnvConfig(nominal_state=np.array([-0.15, 3.9, 1.1, vx, vy, 3.3]), jitter_std=np.zeros(6))
        assert stop_past(cfg.nominal_state.tolist(), t1) == Y_PAST
        aimed, full = aimed_and_full(cfg, t1)
        assert aimed.rows.tolist() == full.rows.tolist()

    def test_path_along_the_ray_line_matches_the_full_launch(self, env_cfg):
        # a start on the theta1 line through the base, heading along the ray within
        # 1e-10 rad: the samples sit on the ray to rounding, where the azimuth test
        # may flip anywhere; such near-parallel paths must fly in full
        for t1 in np.linspace(-pi, pi, 40):
            for tilt in (0.0, 1e-13, -1e-12, 1e-10):
                for dist in (1.0, 2.0, 3.0, 4.0):
                    vx, vy = 8.3 * ray_direction(t1 + tilt)
                    if vy >= 0.0:
                        continue
                    x, y = BASE[:2] - dist * ray_direction(t1)
                    cfg = EnvConfig(nominal_state=np.array([x, y, 1.1, vx, vy, 2.0]), jitter_std=np.zeros(6))
                    aimed, full = aimed_and_full(cfg, t1)
                    assert aimed.rows.tolist() == full.rows[: len(aimed.rows)].tolist()
                    assert event_or_error(aimed, t1) == event_or_error(full, t1)

    @pytest.mark.parametrize("nominal,t1", [((-0.15, -0.3, 1.1, 0.0, -8.3, 3.3), 0.45),  # crossing behind the start
                                            ((-0.15, 3.9, 1.1, 0.0, -8.3, 3.3), 0.45 + pi)])  # on the opposite ray
    def test_no_crossing_ahead_flies_the_full_path(self, env_cfg, nominal, t1):
        cfg = EnvConfig(nominal_state=np.array(nominal), jitter_std=np.zeros(6))
        assert stop_past(list(nominal), t1) == Y_PAST
        aimed, full = aimed_and_full(cfg, t1)
        assert aimed.rows.tolist() == full.rows.tolist()

    def test_stop_lies_two_samples_and_a_millimeter_past_the_crossing(self, env_cfg):
        # the nominal ball flies straight down -y at x = -0.15, so its crossing of the
        # theta1 ray from the origin is at y = 0.15 / tan(theta1)
        cfg, t1 = env_cfg, 0.45
        y_stop = stop_past(cfg.nominal_state.tolist(), t1)
        assert y_stop == pytest.approx(0.15 / np.tan(t1) - 2 * SAMPLE_DT * 8.3 - 1e-3, abs=1e-12)

    @pytest.mark.parametrize("name", list(WINDOW_EXITS))
    def test_window_exits_miss_as_the_full_launch(self, env_cfg, name):
        nominal, t1 = WINDOW_EXITS[name]
        cfg = EnvConfig(nominal_state=np.array(nominal), jitter_std=np.zeros(6))
        assert stop_past(list(nominal), t1) > Y_PAST
        aimed, full = aimed_and_full(cfg, t1)
        assert is_window(aimed, full)
        with pytest.raises(MissedBall) as missed:
            interception_event(full, t1)
        with pytest.raises(missed.type, match=f"^{re.escape(str(missed.value))}$"):
            interception_event(aimed, t1)
        if name == "crossing_in_first_step":
            assert aimed.rows[:6].tolist() == list(nominal) and missed.type is OutOfReach
            assert "target at 3.905 m" in str(missed.value)
        else:
            assert len(aimed) == 1 and aimed.rows.tolist() == full.rows[-6:].tolist() and missed.type is NoCrossing


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10.0, 10.0), st.floats(-12.0, 2.0), st.floats(-2.0, 6.0), st.floats(-pi, pi),
    st.sampled_from(["free", "along", "against"]),
    st.sampled_from([0.0, 1e-13, -1e-10, 1e-8, -1e-6, 1.01e-6, 1e-5]),
    st.floats(0.3, 4.0),
)
@example(*WINDOW_EXITS["crossing_in_first_step"][0][3:], WINDOW_EXITS["crossing_in_first_step"][1],
         "free", 0.0, 1.0)
@example(*WINDOW_EXITS["floor"][0][3:], WINDOW_EXITS["floor"][1], "free", 0.0, 1.0)
def test_aimed_launch_gives_the_full_launchs_event_property(vx, vy, vz, t1, mode, tilt, dist):
    # "free": the nominal start, theta1 anywhere (the examples are the WINDOW_EXITS that
    # start there); otherwise the start lies `dist` from the base on the line of its
    # velocity, and theta1 is that line's azimuth (along or against the motion) turned
    # by `tilt`, so the path runs on or near the ray
    start = np.array([-0.15, 3.9, 1.1, vx, vy, vz])
    if mode != "free" and np.hypot(vx, vy) > 0.0:
        heading = np.array([vx, vy]) / np.hypot(vx, vy)
        start[:2] = BASE[:2] - dist * heading
        t1 = atan2(heading[1], heading[0]) - REST_AZIMUTH + tilt + (pi if mode == "against" else 0.0)
        t1 = (t1 + pi) % (2 * pi) - pi
    cfg = EnvConfig(nominal_state=start, jitter_std=np.zeros(6))
    aimed, full = aimed_and_full(cfg, t1)
    assert is_window(aimed, full)
    assert event_or_error(aimed, t1) == event_or_error(full, t1)


class TestIntercept:
    def test_noiseless_determinism(self, noiseless_env_cfg):
        phi = InterceptionPolicy(0.45, 0.2)
        r1, e1 = intercept(phi, noiseless_env_cfg, np.random.default_rng(4))
        r2, e2 = intercept(phi, noiseless_env_cfg, np.random.default_rng(4))
        assert np.array_equal(r1, r2)
        assert np.array_equal(r1, propagate_to_landing(phi, e1, TRUTH).landing_point)
        assert np.array_equal(e1.xi_minus, e2.xi_minus)

    def test_truth_jacobian_record_lands_at_the_noise_free_landing(self, env_cfg):
        # the pushed tangent never touches the state: in both modes the truth-Jacobian
        # record lands where a noise-free intercept does, bit for bit, unless it is singular
        cfg = replace(env_cfg, landing_noise_std=np.zeros(2))
        rng = np.random.default_rng(11)
        lo, hi = zip(SCENARIO_BOX.theta1_bounds, SCENARIO_BOX.theta4_bounds)
        intercepts = compared = 0
        for t1, t4 in rng.uniform(lo, hi, size=(600, 2)).tolist():
            phi = InterceptionPolicy(t1, t4)
            with suppress(MissedBall):
                landing, event = intercept(phi, cfg, rng)
                intercepts += 1
                for coupled in (False, True):
                    with suppress(SingularGradient):
                        record, _ = predict_landing_with_gradient(phi, event, TRUTH, coupled)
                        assert np.array_equal(record.landing_point, landing)
                        compared += 1
        assert intercepts >= 500 and compared >= 500

    def test_noise_is_additive_with_stated_scale(self, env_cfg):
        cfg = copy.deepcopy(env_cfg)
        cfg.jitter_std = np.zeros(6)
        phi = InterceptionPolicy(0.45, 0.2)
        rng = np.random.default_rng(6)
        deltas = []
        for _ in range(1000):
            r, event = intercept(phi, cfg, rng)
            deltas.append(r - propagate_to_landing(phi, event, TRUTH).landing_point)
        emp = np.array(deltas).std(axis=0)
        np.testing.assert_allclose(emp, cfg.landing_noise_std, rtol=0.15)
        assert abs(np.array(deltas).mean(axis=0)).max() < 0.03

    def test_matched_parameters_agree_with_predictor(self, noiseless_env_cfg, monkeypatch):
        # when the hidden physics is set equal to the predictor's model (its drag
        # and restitution; the truth keeps its own step), the environment landing
        # and the predicted landing must coincide to a few millimeters (only the
        # integration steps differ)
        matched = replace(TRUTH, k_drag=MODEL.k_drag, restitution=MODEL.restitution)
        monkeypatch.setattr(ttreturn.env, "TRUTH", matched)
        phi = InterceptionPolicy(0.45, 0.2)
        r, _ = intercept(phi, noiseless_env_cfg, np.random.default_rng(0))
        # the same seed launches the same ball again
        incoming = launch(noiseless_env_cfg, np.random.default_rng(0), aim=phi.theta1)
        pred = predict_landing(phi, incoming, MODEL)
        assert np.linalg.norm(r - pred) < 5e-3

    def test_mismatched_parameters_stay_close(self, noiseless_env_cfg):
        # the deliberate model mismatch bends the landing by centimeters, not
        # by a table length
        for t1 in (0.35, 0.50, 0.65):
            for t4 in (0.05, 0.20, 0.35):
                phi = InterceptionPolicy(t1, t4)
                r, _ = intercept(phi, noiseless_env_cfg, np.random.default_rng(0))
                incoming = launch(noiseless_env_cfg, np.random.default_rng(0), aim=t1)
                pred = predict_landing(phi, incoming, MODEL)
                gap = np.linalg.norm(r - pred)
                assert 0.0 < gap < 0.4


@pytest.mark.parametrize("physics", [MODEL, TRUTH], ids=["model", "truth"])
def test_physics_constants_are_immutable(physics):
    # the model and the truth are shared module constants: no caller may change them in place
    assert isinstance(physics, Physics) and isinstance(physics.restitution, tuple)
    for name, value in (("k_drag", 0.0), ("dt", 1.0), ("restitution", (1.0, -1.0, 1.0))):
        with pytest.raises(FrozenInstanceError):
            setattr(physics, name, value)
    assert MODEL != TRUTH


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
        cfg.jitter_std = np.zeros(6)
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

    def test_flight_error_raised_before_the_miss_count(self, env_cfg, monkeypatch):
        # near the reach edge 18 of 40 trials miss, which alone is InfeasibleRegion;
        # with the returns landing on a plane raised to 1.42 m, some hits cannot reach
        # it, and the first of them raises its error as the one-intercept-per-trial loop did
        phi = InterceptionPolicy(0.215, 0.25)
        with pytest.raises(InfeasibleRegion, match="^18 of 40 trials missed the ball$"):
            estimate_variance(phi, 40, env_cfg, np.random.default_rng(0))
        monkeypatch.setattr(ttreturn.ballistics, "Z_TABLE", 1.42)
        rng, landed = np.random.default_rng(0), []
        with pytest.raises(NegativeDiscriminant) as ref:
            for _ in range(40):
                with suppress(MissedBall):
                    landed.append(intercept(phi, env_cfg, rng))
        with pytest.raises(NegativeDiscriminant) as got:
            estimate_variance(phi, 40, env_cfg, np.random.default_rng(0))
        assert str(got.value) == str(ref.value) and len(landed) > 1

    def test_rejects_too_few_trials(self, env_cfg):
        with pytest.raises(ValueError):
            estimate_variance(
                InterceptionPolicy(0.45, 0.25), 1, env_cfg, np.random.default_rng(0)
            )
