"""Projection, step schedule, update rule and the online loop."""

import os
import tempfile
from math import pi
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import read_run_csv

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from ttreturn.arm import InterceptionPolicy
from ttreturn.env import EnvConfig, intercept
from ttreturn.errors import AbortedRun, NonFiniteStep, SingularGradient
from ttreturn.greybox import MODEL, predict_landing_with_gradient
from ttreturn.metrics import MetricsState
from ttreturn.optimizer import (
    CSV_HEADER,
    FeasibleSet,
    IterationRecord,
    RunLog,
    csv_artifact,
    gd_update,
    project,
    run_online,
)

# a box wider than the scenario's, test-local since FeasibleSet has no default bounds
WIDE_BOX = FeasibleSet((-pi / 2, pi / 2), (-pi / 4, pi / 4))


class TestFeasibleSet:
    def test_contains(self):
        box = WIDE_BOX
        assert box.contains(InterceptionPolicy(0.3, 0.1))
        assert not box.contains(InterceptionPolicy(2.0, 0.1))
        assert not box.contains(InterceptionPolicy(0.3, 1.0))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet(theta1_bounds=(0.5, 0.2), theta4_bounds=WIDE_BOX.theta4_bounds)


class TestProject:
    def test_interior_point_unchanged(self):
        phi = project(InterceptionPolicy(0.3, 0.1), WIDE_BOX)
        assert (phi.theta1, phi.theta4) == (0.3, 0.1)

    def test_clips_first_angle(self):
        phi = project(InterceptionPolicy(2.0, 0.1), WIDE_BOX)
        assert phi.theta1 == pytest.approx(pi / 2)
        assert phi.theta4 == 0.1

    def test_clips_both(self):
        phi = project(InterceptionPolicy(-3.0, 1.0), WIDE_BOX)
        assert phi.theta1 == pytest.approx(-pi / 2)
        assert phi.theta4 == pytest.approx(pi / 4)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-pi / 2, pi / 2),
        st.floats(-pi / 4, pi / 4),
    )
    def test_is_metric_projection(self, x, y, kx, ky):
        # the projection onto a box is at least as close to every member of
        # the box as the original point is
        box = WIDE_BOX
        proj = project(InterceptionPolicy(x, y), box)
        assert box.contains(proj)
        d_proj = np.hypot(x - proj.theta1, y - proj.theta4)
        d_member = np.hypot(x - kx, y - ky)
        assert d_proj <= d_member + 1e-12

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(allow_nan=False),
        st.floats(allow_nan=False),
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(1e-6, 10),
        st.floats(1e-6, 10),
    )
    def test_is_idempotent(self, x, y, lo1, lo4, w1, w4):
        box = FeasibleSet(theta1_bounds=(lo1, lo1 + w1), theta4_bounds=(lo4, lo4 + w4))
        once = project(InterceptionPolicy(x, y), box)
        assert project(once, box) == once


def step_lengths(alpha1: float, n_iters: int) -> list[float]:
    """Test-local: the step lengths of a run_online loop whose landings and gradients are zero."""
    env = lambda phi, rng: (np.zeros(2), SimpleNamespace(event=None))
    log = run_online(env, lambda phi, diag: np.zeros((2, 2)), np.zeros(2), InterceptionPolicy(0.0, 0.0),
                     n_iters, alpha1, WIDE_BOX)
    return [rec.alpha for rec in log.records]


class TestStepLength:
    def test_inverse_sqrt_decay(self):
        alphas = step_lengths(0.05, 9)
        assert alphas[0] == pytest.approx(0.05)
        assert alphas[3] == pytest.approx(0.025)
        assert alphas[8] == pytest.approx(0.05 / 3)

    def test_other_base(self):
        assert step_lengths(0.15, 4)[3] == pytest.approx(0.075)

    def test_rejects_nonpositive_alpha1(self):
        for alpha1 in (0.0, -0.1):
            with pytest.raises(ValueError, match="alpha1 must be > 0"):
                step_lengths(alpha1, 1)

    def test_rejects_no_iterations(self):
        with pytest.raises(ValueError, match="n_iters must be >= 1"):
            step_lengths(0.05, 0)


class TestGdUpdate:
    def test_identity_jacobian(self):
        phi = gd_update(
            InterceptionPolicy(0.2, 0.1),
            r_landing=np.array([0.1, -0.1]),
            r_target=np.zeros(2),
            jac=np.eye(2),
            alpha=0.5,
            k=WIDE_BOX,
        )
        assert phi.theta1 == pytest.approx(0.15)
        assert phi.theta4 == pytest.approx(0.15)

    def test_transposes_jacobian(self):
        jac = np.array([[0.0, 2.0], [1.0, 0.0]])
        phi = gd_update(
            InterceptionPolicy(0.0, 0.0),
            r_landing=np.array([1.0, 0.0]),
            r_target=np.zeros(2),
            jac=jac,
            alpha=0.1,
            k=WIDE_BOX,
        )
        # step is -alpha * J^T (r - target)
        assert phi.theta1 == pytest.approx(0.0)
        assert phi.theta4 == pytest.approx(-0.2)

    def test_projects_result(self):
        box = FeasibleSet(theta1_bounds=(-0.1, 0.1), theta4_bounds=(-0.1, 0.1))
        phi = gd_update(
            InterceptionPolicy(0.0, 0.0),
            r_landing=np.array([-5.0, 0.0]),
            r_target=np.zeros(2),
            jac=np.eye(2),
            alpha=1.0,
            k=box,
        )
        assert phi.theta1 == pytest.approx(0.1)
        assert phi.theta4 == pytest.approx(0.0)


def make_noiseless_cfg():
    return EnvConfig(jitter_std=np.zeros(6), landing_noise_std=np.zeros(2))


def make_env(cfg):
    return lambda phi, rng: intercept(phi, cfg, rng)


def greybox_gradient(phi, diag):
    return predict_landing_with_gradient(phi, diag.event, MODEL)[1]


class TestRunOnline:
    def test_noiseless_convergence(self):
        # target chosen as the reachable landing of a nearby policy, so the
        # noiseless loop must drive the error below 5 cm within a few rounds
        cfg = make_noiseless_cfg()
        rng = np.random.default_rng(0)
        _, diag = intercept(InterceptionPolicy(0.45, 0.20), cfg, rng)
        target = diag.noiseless_landing
        log = run_online(
            env=make_env(cfg),
            gradient=greybox_gradient,
            r_target=target,
            phi1=InterceptionPolicy(0.50, 0.25),
            n_iters=5,
            alpha1=0.15,
            k=WIDE_BOX,
            seed=0,
        )
        assert log.records[-1].eps < 0.05

    def test_fixed_point_at_target(self):
        # starting at the policy whose landing defines the target, a
        # noiseless run stays essentially put
        cfg = make_noiseless_cfg()
        rng = np.random.default_rng(0)
        _, diag = intercept(InterceptionPolicy(0.45, 0.20), cfg, rng)
        log = run_online(
            env=make_env(cfg),
            gradient=greybox_gradient,
            r_target=diag.noiseless_landing,
            phi1=InterceptionPolicy(0.45, 0.20),
            n_iters=5,
            alpha1=0.1,
            k=WIDE_BOX,
            seed=1,
        )
        for rec in log.records:
            assert abs(rec.phi.theta1 - 0.45) < 1e-9
            assert abs(rec.phi.theta4 - 0.20) < 1e-9

    def test_iterates_stay_feasible(self):
        cfg = EnvConfig()
        box = FeasibleSet(theta1_bounds=(0.30, 0.60), theta4_bounds=(0.0, 0.35))
        log = run_online(
            env=make_env(cfg),
            gradient=greybox_gradient,
            r_target=np.array([-1.2, 0.6]),
            phi1=InterceptionPolicy(0.45, 0.20),
            n_iters=15,
            alpha1=0.3,
            k=box,
            seed=5,
        )
        for rec in log.records:
            assert box.contains(rec.phi)

    def test_rejects_infeasible_start(self):
        cfg = EnvConfig()
        with pytest.raises(ValueError):
            run_online(
                env=make_env(cfg),
                gradient=greybox_gradient,
                r_target=np.array([-1.2, 0.6]),
                phi1=InterceptionPolicy(2.0, 0.0),
                n_iters=1,
                alpha1=0.05,
                k=WIDE_BOX,
            )

    def test_aborts_after_repeated_misses(self):
        # a box pinned at a policy with no azimuth crossing can never intercept
        cfg = make_noiseless_cfg()
        box = FeasibleSet(theta1_bounds=(-0.5001, -0.4999), theta4_bounds=(-0.0001, 0.0001))
        with pytest.raises(AbortedRun):
            run_online(
                env=make_env(cfg),
                gradient=greybox_gradient,
                r_target=np.array([-1.2, 0.6]),
                phi1=InterceptionPolicy(-0.5, 0.0),
                n_iters=50,
                alpha1=0.1,
                k=box,
                seed=2,
            )

    @pytest.mark.parametrize("source", ["r_landing", "jac"])
    def test_non_finite_step_raises(self, source):
        # a NaN must stop the run at once, not walk the policy off the box
        # into a string of missed balls reported as an aborted run
        cfg = make_noiseless_cfg()

        def env(phi, rng):
            r, diag = intercept(phi, cfg, rng)
            return (np.array([np.nan, r[1]]) if source == "r_landing" else r), diag

        def nan_gradient(phi, diag):
            return np.array([[np.nan, 0.0], [0.0, 1.0]]) if source == "jac" else np.eye(2)

        with pytest.raises(NonFiniteStep, match=f"^iteration 1: {source} is not finite"):
            run_online(
                env=env,
                gradient=nan_gradient,
                r_target=np.array([-1.2, 0.6]),
                phi1=InterceptionPolicy(0.45, 0.20),
                n_iters=5,
                alpha1=0.1,
                k=WIDE_BOX,
                seed=0,
            )

    def test_non_finite_landing_stops_before_metrics_and_gradient(self, monkeypatch):
        # a NaN landing is reported as such even when the gradient would fail,
        # and never enters the metrics buffer
        cfg = make_noiseless_cfg()
        updates = []
        monkeypatch.setattr(MetricsState, "update", lambda self, r: updates.append(r))

        def env(phi, rng):
            r, diag = intercept(phi, cfg, rng)
            return np.array([r[0], np.nan]), diag

        def failing_gradient(phi, diag):
            raise SingularGradient("gradient reached")

        with pytest.raises(NonFiniteStep, match="^iteration 1: r_landing is not finite"):
            run_online(env, failing_gradient, np.array([-1.2, 0.6]), InterceptionPolicy(0.45, 0.20), 5, 0.1,
                       WIDE_BOX)
        assert updates == []

    def test_gradient_sees_the_env_diagnostics(self):
        cfg = make_noiseless_cfg()
        seen = []

        def env(phi, rng):
            r, diag = intercept(phi, cfg, rng)
            seen.append(diag)
            return r, diag

        def gradient(phi, diag):
            assert diag is seen[-1]
            return greybox_gradient(phi, diag)

        log = run_online(env, gradient, np.array([-1.2, 0.6]), InterceptionPolicy(0.45, 0.20), 4, 0.1, WIDE_BOX)
        assert len(log.records) == len(seen) == 4

    def test_replay_determinism(self):
        cfg = EnvConfig()
        kwargs = dict(
            env=make_env(cfg),
            gradient=greybox_gradient,
            r_target=np.array([-1.2, 0.6]),
            phi1=InterceptionPolicy(0.45, 0.20),
            n_iters=10,
            alpha1=0.1,
            k=WIDE_BOX,
            seed=77,
        )
        a = run_online(**kwargs)
        b = run_online(**kwargs)
        for ra, rb in zip(a.records, b.records):
            assert ra.phi == rb.phi
            assert np.array_equal(ra.r_landing, rb.r_landing)
            assert (ra.loss, ra.eps, ra.sigma) == (rb.loss, rb.eps, rb.sigma)


class TestRunLog:
    def _small_log(self):
        cfg = EnvConfig()
        return run_online(
            env=make_env(cfg),
            gradient=greybox_gradient,
            r_target=np.array([-1.2, 0.6]),
            phi1=InterceptionPolicy(0.45, 0.20),
            n_iters=8,
            alpha1=0.1,
            k=WIDE_BOX,
            seed=3,
        )

    def test_csv_round_trip(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "run.csv"
        log.to_csv(path, ("seed=3", "config=abc123"))
        back, provenance = read_run_csv(path)
        assert int(provenance["seed"]) == 3
        assert provenance["config"] == "abc123"
        assert back.n_failures == log.n_failures
        assert len(back.records) == len(log.records)
        for ra, rb in zip(log.records, back.records):
            assert rb.i == ra.i
            assert rb.phi.theta1 == pytest.approx(ra.phi.theta1, rel=1e-8)
            assert rb.phi.theta4 == pytest.approx(ra.phi.theta4, rel=1e-8)
            np.testing.assert_allclose(rb.r_landing, ra.r_landing, rtol=1e-8)
            assert rb.eps == pytest.approx(ra.eps, rel=1e-8)
            assert rb.sigma == pytest.approx(ra.sigma, rel=1e-8, abs=1e-12)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_csv_bytes_round_trip_property(self, data):
        # every value is written with 9 significant digits, also an integer policy
        # angle (10**10 as 1e+10) and nan or inf; provenance is exact
        num = st.floats(width=64)
        angle = num | st.integers(-(10**12), 10**12)
        record = st.builds(
            IterationRecord,
            i=st.integers(1, 10**6),
            phi=st.builds(InterceptionPolicy, angle, angle),
            r_landing=st.tuples(num, num).map(np.array),
            alpha=num, loss=num, eps=num, sigma=num,
            r_bar=st.tuples(num, num).map(np.array),
        )
        log = RunLog(
            records=data.draw(st.lists(record, max_size=5)),
            n_failures=data.draw(st.integers(0, 10**6)),
        )
        seed = data.draw(st.integers(0, 2**64))
        config = data.draw(st.text("0123456789abcdef", min_size=16, max_size=16))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.csv")
            log.to_csv(path, (f"seed={seed}", f"config={config}"))
            with open(path, "rb") as f:
                lines = f.read().decode().split("\n")
        assert lines[:4] == [f"# seed={seed}", f"# config={config}", f"# failures={log.n_failures}", CSV_HEADER]
        assert lines[-1] == "" and len(lines) == 5 + len(log.records)
        for line, rec in zip(lines[4:], log.records):
            vals = (rec.phi.theta1, rec.phi.theta4, *rec.r_landing, rec.alpha, rec.loss, rec.eps, rec.sigma, *rec.r_bar)
            assert line.split(",") == [str(rec.i)] + [format(v, ".9g") for v in vals]

    def test_writer_cells_and_footer(self, tmp_path):
        # a str cell as is, any other with .9g; footer lines after the rows; the directory is made
        path = tmp_path / "new" / "a.csv"
        rows = [("7", 0.1, np.float64(2 / 3)), ("x", float("nan"), np.inf), ("1e3", -np.inf, 10**10)]
        csv_artifact(path, ("seed=0", "config=abc"), "a,b,c", rows, ("n=3",))
        assert path.read_text() == (
            "# seed=0\n# config=abc\na,b,c\n7,0.1,0.666666667\nx,nan,inf\n1e3,-inf,1e+10\n# n=3\n"
        )

    def test_writer_keeps_rows_before_a_raising_row(self, tmp_path):
        def rows():
            yield "1", 0.5
            yield "2", 0.25
            raise ValueError("third row")

        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match="third row"):
            csv_artifact(path, ("seed=1",), "i,x", rows(), ("never=written",))
        assert path.read_text() == "# seed=1\ni,x\n1,0.5\n2,0.25\n"

    def test_metrics_consistency(self):
        # eps and sigma logged per iteration must match a direct recomputation
        # from the landing points seen so far
        target = np.array([-1.2, 0.6])
        log = self._small_log()
        pts = np.array([rec.r_landing for rec in log.records])
        for i, rec in enumerate(log.records):
            head = pts[: i + 1]
            rbar = head.mean(axis=0)
            eps = np.linalg.norm(target - rbar)
            sigma = np.sqrt(np.mean(np.sum((head - rbar) ** 2, axis=1)))
            assert rec.eps == pytest.approx(eps, abs=1e-9)
            assert rec.sigma == pytest.approx(sigma, abs=1e-9)
            np.testing.assert_allclose(rec.r_bar, rbar, atol=1e-9)
            assert rec.loss == pytest.approx(
                0.5 * np.sum((pts[i] - target) ** 2), abs=1e-9
            )
