"""First-principles landing predictor: values, oracle agreement, gradients."""

import numpy as np
import pytest

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from conftest import fine_step_landing
from ttreturn import ballistics
from ttreturn.arm import InterceptionPolicy, interception_event, racket_rotation, racket_velocity
from ttreturn.env import EnvConfig, SampledTrajectory, launch
from ttreturn.ballistics import MAX_STEPS, Z_TABLE, propagate_to_landing
from ttreturn.errors import (MaxStepsExceeded, MissedBall, NegativeDiscriminant, NoCrossing, OutOfReach, SimulationError,
                             SingularGradient)
from ttreturn.greybox import (
    MODEL,
    central_difference,
    predict_landing,
    predict_landing_with_gradient,
    predict_landings,
)
from ttreturn.harness import SCENARIO_BOX, sampling_bounds
from ttreturn.impact import racket_impact

LO, HI = sampling_bounds(SCENARIO_BOX)


def landing_and_gradient(phi, traj, coupled=False):
    """Test-local: the landing point and Jacobian of predict_landing_with_gradient at traj's event."""
    record, jac = predict_landing_with_gradient(phi, interception_event(traj, phi.theta1), MODEL, coupled)
    return record.landing_point, jac


def test_vertical_return_lands_below_interception(zero_yaw_rate):
    # a ball dropping straight down onto a flat resting racket with zero
    # racket velocity bounces straight down again
    times = np.arange(60) * 0.002
    states = np.stack(
        [np.stack([np.zeros_like(times) + 0.0, np.zeros_like(times) + 0.9,
                   0.95 - 1.0 * times, np.zeros_like(times),
                   np.zeros_like(times), np.zeros_like(times) - 1.0], axis=1)]
    )[0]
    traj = SampledTrajectory(states.ravel().tolist())
    phi = InterceptionPolicy(0.0, 0.0)
    event = interception_event(traj, 0.0)
    xi_plus = racket_impact(
        event.xi_minus, racket_rotation(phi), racket_velocity(event), MODEL
    )
    np.testing.assert_allclose(xi_plus[3:5], np.zeros(2), atol=1e-12)
    landing = predict_landing(phi, traj, MODEL)
    np.testing.assert_allclose(landing, event.xi_minus[:2], atol=1e-12)


def test_matches_fine_step_oracle_pipeline(nominal_traj):
    phi = InterceptionPolicy(0.40, 0.0)
    event = interception_event(nominal_traj, phi.theta1)
    xi_plus = racket_impact(
        event.xi_minus,
        racket_rotation(phi),
        racket_velocity(event),
        MODEL,
    )
    landing = predict_landing(phi, nominal_traj, MODEL)
    ref = fine_step_landing(xi_plus, MODEL.k_drag, Z_TABLE)
    assert np.linalg.norm(landing - ref) < 5e-3


def test_more_tilt_gives_longer_range(nominal_traj):
    for t1 in (0.32, 0.45, 0.58, 0.70):
        ranges = []
        for t4 in (0.0, 0.1, 0.2, 0.3):
            phi = InterceptionPolicy(t1, t4)
            event = interception_event(nominal_traj, t1)
            landing = predict_landing(phi, nominal_traj, MODEL)
            ranges.append(float(np.linalg.norm(landing - event.xi_minus[:2])))
        assert all(a < b for a, b in zip(ranges, ranges[1:]))


def test_gradient_matches_frozen_fd(nominal_traj):
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(10):
        t1, t4 = rng.uniform([0.30, 0.0], [0.70, 0.40])
        phi = InterceptionPolicy(t1, t4)
        _, jac = landing_and_gradient(phi, nominal_traj)
        event = interception_event(nominal_traj, t1)
        fd = np.zeros((2, 2))
        for col, d in enumerate(((h, 0.0), (0.0, h))):
            hi = propagate_to_landing(
                InterceptionPolicy(t1 + d[0], t4 + d[1]), event, MODEL
            ).landing_point
            lo = propagate_to_landing(
                InterceptionPolicy(t1 - d[0], t4 - d[1]), event, MODEL
            ).landing_point
            fd[:, col] = (hi - lo) / (2 * h)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-4


def test_tilt_column_dominates_range_direction(nominal_traj):
    for t1, t4 in ((0.35, 0.10), (0.45, 0.20), (0.60, 0.30)):
        phi = InterceptionPolicy(t1, t4)
        landing, jac = landing_and_gradient(phi, nominal_traj)
        event = interception_event(nominal_traj, t1)
        u = landing - event.xi_minus[:2]
        u = u / np.linalg.norm(u)
        assert abs(u @ jac[:, 1]) > abs(u @ jac[:, 0])


def test_first_order_taylor_consistency(nominal_traj):
    phi = InterceptionPolicy(0.48, 0.22)
    event = interception_event(nominal_traj, phi.theta1)
    base = propagate_to_landing(phi, event, MODEL).landing_point
    _, jac = landing_and_gradient(phi, nominal_traj)
    direction = np.array([0.7, -0.4])
    errs = []
    for scale in (2e-3, 1e-3):
        d = scale * direction
        moved = propagate_to_landing(
            InterceptionPolicy(phi.theta1 + d[0], phi.theta4 + d[1]), event, MODEL
        ).landing_point
        errs.append(np.linalg.norm(moved - base - jac @ d))
    assert errs[0] / errs[1] >= 1.9


def test_prediction_independent_of_sampling_density(nominal_traj):
    # thinning the same trajectory must barely move the prediction, since the
    # crossing is interpolated between samples
    states = np.array(nominal_traj.rows).reshape(-1, 6)
    thin = SampledTrajectory(states[::2].ravel().tolist())
    for t1, t4 in ((0.35, 0.1), (0.55, 0.3)):
        a = predict_landing(InterceptionPolicy(t1, t4), nominal_traj, MODEL)
        b = predict_landing(InterceptionPolicy(t1, t4), thin, MODEL)
        assert np.linalg.norm(a - b) < 1e-3


def test_value_unchanged_by_gradient_request(nominal_traj):
    phi = InterceptionPolicy(0.52, 0.18)
    value_only = predict_landing(phi, nominal_traj, MODEL)
    value, jac = landing_and_gradient(phi, nominal_traj)
    assert np.array_equal(value, value_only)
    assert np.all(np.isfinite(jac))


def test_coupled_mode_gradient(nominal_traj):
    phi = InterceptionPolicy(0.45, 0.2)
    value, jac = landing_and_gradient(phi, nominal_traj, coupled=True)
    # independent full-pipeline finite difference at a different step
    h = 5e-6
    fd = np.zeros((2, 2))
    for col, d in enumerate(((h, 0.0), (0.0, h))):
        hi = predict_landing(InterceptionPolicy(0.45 + d[0], 0.2 + d[1]), nominal_traj, MODEL)
        lo = predict_landing(InterceptionPolicy(0.45 - d[0], 0.2 - d[1]), nominal_traj, MODEL)
        fd[:, col] = (hi - lo) / (2 * h)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-3
    np.testing.assert_allclose(value, predict_landing(phi, nominal_traj, MODEL), atol=1e-15)


def coupled_policies(traj, rng, n):
    """The first n policies drawn uniformly over the sampling box that intercept traj."""
    phis = []
    while len(phis) < n:
        phi = InterceptionPolicy(*rng.uniform(LO, HI).tolist())
        try:
            interception_event(traj, phi.theta1)
        except MissedBall:
            continue
        phis.append(phi)
    return phis


def test_coupled_jacobian_matches_pipeline_central_differences(nominal_traj):
    # 40 policies on the nominal trajectory and 40 on jittered launches, against
    # a 1e-6 rad central difference of the whole pipeline, event included; as in
    # grad_check_report, a policy whose differences change the flight's step
    # count or the crossing pair is set aside (one of the 80 here)
    cfg, h = EnvConfig(), 1e-6
    rng = np.random.default_rng(41)
    cases = [(nominal_traj, phi) for phi in coupled_policies(nominal_traj, rng, 40)]
    while len(cases) < 80:
        traj = launch(cfg, rng)
        cases += [(traj, phi) for phi in coupled_policies(traj, rng, 1)]
    clean = 0
    for traj, phi in cases:
        value, jac = landing_and_gradient(phi, traj, coupled=True)
        assert np.array_equal(value, predict_landing(phi, traj, MODEL))
        seen = set()

        def landing(p):
            event = interception_event(traj, p.theta1)
            record = propagate_to_landing(p, event, MODEL)
            seen.add((record.k_max, event.dxi_dtheta1))
            return record.landing_point

        fd = central_difference(landing, phi, h)
        landing(phi)  # the base policy's step count and pair join the differences' in `seen`
        if len(seen) == 1:
            clean += 1
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-8
    assert clean >= 78


def test_degenerate_crossing_pair_has_no_coupled_gradient():
    # the path runs along the theta1 = 0 ray (+y from the base pivot), so its
    # first pair lies on that azimuth (a == b == 0) and has no event tangent
    n = 300
    times = np.arange(n) * 0.002
    z, o = np.zeros(n), np.ones(n)
    rows = np.column_stack([z, 0.8 - 0.5 * times, 0.8 * o, z, -0.5 * o, z])
    traj = SampledTrajectory(rows.ravel().tolist())
    phi = InterceptionPolicy(0.0, 0.2)
    event = interception_event(traj, phi.theta1)
    assert event.dxi_dtheta1 is None
    _, jac = landing_and_gradient(phi, traj)
    assert np.all(np.isfinite(jac))
    with pytest.raises(SingularGradient):
        landing_and_gradient(phi, traj, coupled=True)


def test_frozen_record_matches_pipeline_at_base_policy(nominal_traj):
    phi = InterceptionPolicy(0.5, 0.25)
    event = interception_event(nominal_traj, phi.theta1)
    rec = propagate_to_landing(phi, event, MODEL)
    np.testing.assert_allclose(
        rec.landing_point, predict_landing(phi, nominal_traj, MODEL), atol=1e-12
    )


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(LO[0], HI[0], allow_nan=False),
    st.floats(LO[1], HI[1], allow_nan=False),
)
def test_frozen_jacobian_matches_central_differences_property(seed, t1, t4):
    # jittered launch, policy in the sampling box; draws where a difference
    # changes the flight's step count are set aside, as grad_check_report does
    cfg, h = EnvConfig(), 1e-5
    traj = launch(cfg, np.random.default_rng(seed))
    try:
        event = interception_event(traj, t1)
    except MissedBall:
        assume(False)
    record, jac = predict_landing_with_gradient(InterceptionPolicy(t1, t4), event, MODEL)
    fd = np.zeros((2, 2))
    for col, d in enumerate(((h, 0.0), (0.0, h))):
        hi = propagate_to_landing(InterceptionPolicy(t1 + d[0], t4 + d[1]), event, MODEL)
        lo = propagate_to_landing(InterceptionPolicy(t1 - d[0], t4 - d[1]), event, MODEL)
        assume(hi.k_max == lo.k_max == record.k_max)
        fd[:, col] = (hi.landing_point - lo.landing_point) / (2 * h)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-4


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(LO[0], HI[0], allow_nan=False),
    st.floats(LO[1], HI[1], allow_nan=False),
)
def test_coupled_jacobian_matches_central_differences_property(seed, t1, t4):
    # as the frozen property, but each difference re-intercepts; draws where a
    # difference changes the step count or the crossing pair are set aside
    cfg, h = EnvConfig(), 1e-5
    traj = launch(cfg, np.random.default_rng(seed))
    try:
        event = interception_event(traj, t1)
        events = [interception_event(traj, t1 + d) for d in (h, -h)]
    except MissedBall:
        assume(False)
    assume(all(ev.dxi_dtheta1 == event.dxi_dtheta1 for ev in events))
    record, jac = predict_landing_with_gradient(InterceptionPolicy(t1, t4), event, MODEL, coupled=True)
    fd = np.zeros((2, 2))
    for col, (d1, d4) in enumerate(((h, 0.0), (0.0, h))):
        hi = propagate_to_landing(InterceptionPolicy(t1 + d1, t4 + d4), events[0] if d1 else event, MODEL)
        lo = propagate_to_landing(InterceptionPolicy(t1 - d1, t4 - d4), events[1] if d1 else event, MODEL)
        assume(hi.k_max == lo.k_max == record.k_max)
        fd[:, col] = (hi.landing_point - lo.landing_point) / (2 * h)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-4


def test_empty_block_lands_nothing():
    assert predict_landings([], np.zeros((0, 6)), MODEL) == []
    with pytest.raises(ValueError, match="2 pre-impact states but 1 policies"):
        predict_landings([InterceptionPolicy(0.4, 0.1)], np.zeros((2, 6)), MODEL)


MANY_ROWS = 100  # the least landing rows of the block, a dataset label block and not a handful of rows


@pytest.mark.parametrize(
    "max_steps,z_table,error",
    [(MAX_STEPS, Z_TABLE, None), (MAX_STEPS, 1.3, NegativeDiscriminant), (300, Z_TABLE, MaxStepsExceeded)],
    ids=["landings", "negative-discriminant", "max-steps"],
)
def test_block_labels_match_per_policy_path(nominal_traj, monkeypatch, max_steps, z_table, error):
    # pre-impact states of the nominal launch and jittered ones, at theta1 over
    # (-pi, 3.0) and theta4 across the box, and a non-finite theta4 last; each
    # row's scalar outcome is propagate_to_landing's landing point or error. The
    # launches fly to the usual table; only the returns land on a plane at z_table.
    cfg = EnvConfig()
    rng = np.random.default_rng(31)
    trajs = [nominal_traj] + [launch(cfg, rng) for _ in range(2)]
    monkeypatch.setattr(ballistics, "Z_TABLE", z_table)
    monkeypatch.setattr(ballistics, "MAX_STEPS", max_steps)
    t4_lo, t4_hi = SCENARIO_BOX.theta4_bounds
    events = []
    for traj in trajs:
        for t1, t4 in np.column_stack((rng.uniform(-np.pi, 3.0, 400), rng.uniform(t4_lo, t4_hi, 400))).tolist():
            try:
                events.append((InterceptionPolicy(t1, t4), interception_event(traj, t1)))
            except MissedBall:
                pass
    events.append((InterceptionPolicy(0.5, np.nan), interception_event(nominal_traj, 0.5)))
    phis, xi, expected = [phi for phi, _ in events], np.array([ev.xi_minus for _, ev in events]), []
    for phi, event in events:
        try:
            expected.append(propagate_to_landing(phi, event, MODEL).landing_point)
        except SimulationError as exc:
            expected.append((type(exc), str(exc)))
    landed = [i for i, e in enumerate(expected) if isinstance(e, np.ndarray)]
    failed = [i for i, e in enumerate(expected) if isinstance(e, tuple)]
    assert len(landed) >= MANY_ROWS and 0 < failed[0]
    assert {expected[i][0] for i in failed} == {MaxStepsExceeded} | ({error} if error else set())
    for got, i in zip(predict_landings([phis[i] for i in landed], xi[landed], MODEL), landed, strict=True):
        np.testing.assert_array_equal(got, expected[i])
    # a block raises its first failing row's error, in row order, with landing rows before and after it
    kinds = set()
    for j in sorted({0, len(failed) // 3, len(failed) // 2, len(failed) - 1}):
        rows = sorted(landed + failed[j:])
        with pytest.raises(SimulationError) as info:
            predict_landings([phis[i] for i in rows], xi[rows], MODEL)
        assert (type(info.value), str(info.value)) == expected[failed[j]]
        kinds.add(type(info.value))
    assert kinds == {MaxStepsExceeded} | ({error} if error else set())
