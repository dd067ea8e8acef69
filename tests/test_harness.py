"""Experiment configuration, dataset generation, gradient reports, drivers."""

import dataclasses
import importlib
import json
import os
import pathlib
import pkgutil
import re
import signal
import tempfile
import warnings
from functools import partial
from itertools import islice

import numpy as np
import pytest

import ttreturn.ballistics
import ttreturn.env
import ttreturn.greybox
import ttreturn.harness
from conftest import read_run_csv

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from test_arm import base_azimuth
from ttreturn.arm import InterceptionPolicy, interception_event
from ttreturn.ballistics import MAX_STEPS, Z_TABLE
from ttreturn.blackbox import Dataset, MlpModel, mlp_forward, mlp_jacobian, random_model
from ttreturn.env import estimate_variance, intercept
from ttreturn.errors import ConfigError, InfeasibleRegion, MissedBall, SimulationError
from ttreturn.greybox import MODEL, central_difference, predict_landing, predict_landing_with_gradient
from ttreturn.harness import (
    ExperimentConfig,
    MODES,
    RUN_START,
    SCENARIO_BOX,
    SAMPLING_MARGIN,
    SWEEP_START,
    derived_seeds,
    gen_dataset,
    gen_dataset_greybox,
    grad_check_report,
    iters_to_threshold,
    nominal_trajectory,
    run_experiment,
    sampling_bounds,
)
from ttreturn.optimizer import FeasibleSet, RunLog


def to_json(cfg: ExperimentConfig, path) -> None:
    """Test-local: write a config as the JSON document from_json reads."""
    with open(path, "w", newline="\n") as f:
        json.dump(dataclasses.asdict(cfg), f, indent=1, default=list)
        f.write("\n")


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_readme_table_names_every_field(self):
        # README's configuration table keeps up with ExperimentConfig: each field on a row, with its flag
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        flags = {name: line.split("|")[2] for line in table.splitlines() if line.startswith("| `")
                 for name in re.findall(r"`(\w+)`", line.split("|")[1])}
        assert [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in flags] == []
        declared = [(f.name, f.metadata["flag"]) for f in dataclasses.fields(ExperimentConfig) if f.metadata.get("flag")]
        assert len(declared) == 15
        assert [(name, flag) for name, flag in declared if f"`{flag}`" not in flags[name]] == []

    def test_readme_package_names_resolve(self):
        # every backticked `module.name` or `module.Class.attr` of the package in
        # README exists, so a rename cannot leave a stale name behind
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
        modules = {m.name for m in pkgutil.iter_modules(ttreturn.__path__)}
        refs = [m.group(0) for span in spans for m in re.finditer(r"(?<![\w./])(\w+)\.\w+(?:\.\w+)?", span)
                if m.group(1) in modules]

        def resolves(ref):
            module, *path = ref.split(".")
            value = importlib.import_module(f"ttreturn.{module}")
            for part in path:
                if not hasattr(value, part):
                    return False
                value = getattr(value, part)
            return True

        assert len(refs) > 30 and [ref for ref in refs if not resolves(ref)] == []

    @pytest.mark.parametrize(
        "field,value,prefix",
        [
            ("mode", "bogus", "mode"),
            ("seed", -1, "seed"),
            ("predictor", "oracle", "predictor"),
            ("alpha1", 0.0, "alpha1"),
            ("n_iters", 0, "n_iters"),
            ("target", (1.0,), "target"),
            ("phi1", (5.0, 0.0), "phi1"),
            ("box_theta1", (0.7, 0.2), "box_theta1"),
            ("n_points", 0, "n_points"),
            ("sampling", "random", "sampling"),
            ("labels", "truth", "labels"),
            ("epochs", 0, "epochs"),
            ("n_trials", 1, "n_trials"),
            ("sweep_kind", "angles", "sweep_kind"),
            ("jitter_std", (0.1, 0.1), "jitter_std"),
            ("n_seeds", 0, "n_seeds: must be >= 1$"),
            ("n_replicates", 0, "n_replicates: must be >= 1$"),
            ("box_theta4", (0.4, -0.05), "box_theta4: expected \\(lower, upper\\)"),
            ("landing_noise_std", (0.1, 0.1, 0.1), "landing_noise_std: expected 2 components$"),
            ("landing_noise_std", (0.1, -0.1), "landing_noise_std: must be >= 0$"),
            ("nominal_state", (1.0, 2.0), "nominal_state: expected 6 components$"),
        ],
    )
    def test_field_name_in_error(self, field, value, prefix):
        cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ConfigError, match=f"^{prefix}"):
            cfg.validate()

    @pytest.mark.parametrize("mode,start", [("run", RUN_START), ("sweep", SWEEP_START), ("gen-data", RUN_START)])
    def test_empty_phi1_is_the_modes_start(self, tmp_path, mode, start):
        # only an empty phi1 takes the mode's start; null stays a type error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": mode, "phi1": []}))
        assert ExperimentConfig.from_json(path).start() == start
        path.write_text(json.dumps({"mode": mode, "phi1": None}))
        with pytest.raises(ConfigError, match=r"^phi1: expected a pair of numbers, got None$"):
            ExperimentConfig.from_json(path).validate()

    def test_replaced_mode_moves_the_start(self):
        # the start is read from the mode when the config is read, not when it is built
        sweep = dataclasses.replace(ExperimentConfig(), mode="sweep")
        assert (sweep.phi1, sweep.start(), sweep.config_hash()) == ((), SWEEP_START, "3369542910c33ef1")
        run = dataclasses.replace(sweep, mode="run")
        assert (run.phi1, run.start(), run.config_hash()) == ((), RUN_START, "0df2ccd6c8da0a51")

    @pytest.mark.parametrize("mode,start,digest", [("run", RUN_START, "0df2ccd6c8da0a51"),
                                                   ("sweep", SWEEP_START, "3369542910c33ef1")])
    def test_empty_phi1_list_is_the_modes_start(self, mode, start, digest):
        cfg = ExperimentConfig(mode=mode, phi1=[])
        cfg.validate()
        assert (cfg.start(), cfg.config_hash()) == (start, digest)

    @pytest.mark.parametrize(
        "changes,message",
        [(dict(mode="gen-data", sampling="grid", n_points=10), "n_points: grid sampling needs a square count"),
         (dict(mode="gen-data", box_theta1=(0.3, 0.38)), "box: too small for the sampling margin"),
         (dict(mode="grad-check", box_theta1=(0.3, 0.38)), "box: too small for the sampling margin"),
         (dict(mode="grad-check", predictor="blackbox", box_theta4=(0.0, 0.1)), "box: too small for the sampling margin")],
        ids=["grid-not-square", "gen-data-narrow-box", "grad-check-narrow-box", "blackbox-grad-check-narrow-box"],
    )
    def test_rejects_what_the_sampler_refuses(self, changes, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(**changes).validate()

    @pytest.mark.parametrize("mode", ["run", "sweep"])
    def test_narrow_box_is_valid_where_nothing_is_sampled(self, mode):
        # neither samples policies; grad-check ignores the sampling field
        ExperimentConfig(mode=mode, box_theta1=(0.3, 0.38), phi1=(0.35, 0.2)).validate()
        ExperimentConfig(mode="grad-check", sampling="grid", n_points=10).validate()

    @pytest.mark.parametrize(
        "changes",
        [dict(mode="run", sweep_targets=(), initial_policies=()),
         dict(mode="sweep", sweep_kind="inits", sweep_targets=()),
         dict(mode="sweep", sweep_kind="targets", initial_policies=((5.0, 5.0),)),
         dict(mode="gen-data", sweep_kind="inits", initial_policies=((5.0, 5.0),))],
        ids=["run", "inits-sweep", "targets-sweep", "gen-data"],
    )
    def test_case_lists_checked_only_by_the_sweep_that_reads_them(self, changes):
        ExperimentConfig(**changes).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha1", float("nan")),
            ("alpha1", float("inf")),
            ("target", (float("nan"), 1.0)),
            ("phi1", (0.5, float("nan"))),
            ("box_theta1", (0.2, float("inf"))),
            ("box_theta4", (float("-inf"), 0.4)),
            ("landing_noise_std", (0.1, float("nan"))),
            ("jitter_std", (0.0, 0.0, 0.0, float("inf"), 0.0, 0.0)),
            ("nominal_state", (-0.15, 3.9, float("nan"), 0.0, -8.3, 3.3)),
            ("sweep_targets", ((-0.9, 0.3), (float("nan"), 0.3))),
            ("initial_policies", ((0.36, float("inf")),)),
            ("variance_policies", ((float("nan"), 0.10),)),
        ],
    )
    def test_rejects_non_finite(self, field, value):
        cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
            cfg.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "3"),
            ("seed", True),
            ("n_iters", 2.5),
            ("alpha1", "0.1"),
            ("alpha1", False),
            ("couple_geometry", 1),
            ("target", 5),
            ("target", ("a", 1.0)),
            ("sweep_targets", ((1.0, 2.0), (3.0,))),
            ("mode", None),
            ("out_dir", 3),
        ],
    )
    def test_rejects_wrong_type(self, field, value):
        cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ConfigError, match=f"^{field}: expected "):
            cfg.validate()

    def test_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="expected a JSON object"):
            ExperimentConfig.from_json(path)

    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(mode="run", seed=5, alpha1=0.07, target=(-1.2, 0.8))
        path = tmp_path / "cfg.json"
        to_json(cfg, path)
        back = ExperimentConfig.from_json(path)
        assert back.mode == "run"
        assert back.seed == 5
        assert back.alpha1 == 0.07
        assert tuple(back.target) == (-1.2, 0.8)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_json_round_trip_property(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        pair = st.tuples(finite, finite)
        cfg = data.draw(st.builds(
            ExperimentConfig,
            mode=st.sampled_from(MODES),
            seed=st.integers(0, 2**63),
            predictor=st.sampled_from(("greybox", "blackbox")),
            alpha1=finite,
            n_iters=st.integers(1, 10**6),
            target=pair,
            phi1=pair,
            couple_geometry=st.booleans(),
            box_theta4=pair,
            sampling=st.sampled_from(("uniform", "grid")),
            landing_noise_std=st.one_of(st.just(()), pair),
            nominal_state=st.one_of(st.just(()), st.tuples(*[finite] * 6)),
            variance_policies=st.lists(pair, max_size=4).map(tuple),
            sweep_targets=st.lists(pair, max_size=4).map(tuple),
        ))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            to_json(cfg, path)
            back = ExperimentConfig.from_json(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_rejects_unknown_json_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "run", "stepsize": 0.1}\n')
        with pytest.raises(ConfigError, match="stepsize"):
            ExperimentConfig.from_json(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json}\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_hash_ignores_artifact_paths(self):
        a = ExperimentConfig(out_dir="x", dataset_path="d1.csv", model_path="m1.json")
        b = ExperimentConfig(out_dir="y", dataset_path="d2.csv", model_path="m2.json")
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig(seed=1)
        assert c.config_hash() != a.config_hash()

    def test_hash_ignores_number_spelling(self):
        # {"alpha1": 1} in a config file and --alpha1 1 are the same run
        assert ExperimentConfig().config_hash() == "0df2ccd6c8da0a51"
        assert ExperimentConfig(mode="sweep", phi1=SWEEP_START).config_hash() == "3369542910c33ef1"
        # a sweep's default start is SWEEP_START, in the library as on the command line
        assert ExperimentConfig(mode="sweep").start() == SWEEP_START
        assert ExperimentConfig(mode="sweep").config_hash() == "3369542910c33ef1"
        for ints, floats in ((dict(alpha1=1), dict(alpha1=1.0)), (dict(target=(-1, 1)), dict(target=(-1.0, 1.0))),
                             (dict(variance_policies=((0, 1),)), dict(variance_policies=((0.0, 1.0),))),
                             (dict(landing_noise_std=(0, 1)), dict(landing_noise_std=[0.0, 1.0]))):
            assert ExperimentConfig(**ints).config_hash() == ExperimentConfig(**floats).config_hash()
        assert ExperimentConfig(alpha1=1).config_hash() != ExperimentConfig(alpha1=1.5).config_hash()


class TestSamplingBounds:
    def test_margin_applied(self):
        lo, hi = sampling_bounds(SCENARIO_BOX)
        assert lo[0] == pytest.approx(SCENARIO_BOX.theta1_bounds[0] + SAMPLING_MARGIN)
        assert hi[1] == pytest.approx(SCENARIO_BOX.theta4_bounds[1] - SAMPLING_MARGIN)

    def test_too_small_box(self):
        with pytest.raises(ConfigError):
            sampling_bounds(FeasibleSet((0.0, 0.05), (0.0, 0.05)))


class TestDatasetGeneration:
    def test_grid_is_lexicographic(self, env_cfg):
        rng = np.random.default_rng(0)
        ds = gen_dataset_greybox(env_cfg, 100, "grid", rng)
        x, _ = ds.arrays()
        assert len(ds) == 100
        lo, hi = sampling_bounds(SCENARIO_BOX)
        t1_vals = np.unique(np.round(x[:, 0], 12))
        assert len(t1_vals) == 10
        assert t1_vals[0] == pytest.approx(lo[0])
        assert t1_vals[-1] == pytest.approx(hi[0])
        # first axis varies slowest
        assert np.all(np.diff(x[:, 0]) >= -1e-12)

    def test_grid_rejects_non_square(self, env_cfg):
        with pytest.raises(ConfigError):
            gen_dataset_greybox(env_cfg, 10, "grid", np.random.default_rng(0))

    def test_uniform_stays_inside_margin(self, env_cfg):
        ds = gen_dataset_greybox(env_cfg, 50, "uniform", np.random.default_rng(1))
        x, _ = ds.arrays()
        lo, hi = sampling_bounds(SCENARIO_BOX)
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)

    def test_greybox_labels_match_predictor(self, env_cfg):
        ds = gen_dataset_greybox(env_cfg, 5, "uniform", np.random.default_rng(2))
        traj = nominal_trajectory(env_cfg)
        for phi, landing in ds.records:
            np.testing.assert_allclose(
                landing, predict_landing(phi, traj, MODEL), atol=1e-12
            )

    def test_env_labels_are_noisy(self, env_cfg):
        ds = gen_dataset(env_cfg, 30, "uniform", np.random.default_rng(3))
        assert len(ds) == 30
        _, y = ds.arrays()
        # anisotropic landing noise leaves a visible spread
        assert y.std(axis=0).min() > 0.01

    def test_infeasible_box_raises(self, env_cfg):
        box = FeasibleSet((-0.6, -0.4), (-0.05, 0.45))
        with pytest.raises(InfeasibleRegion):
            gen_dataset(env_cfg, 10, "uniform", np.random.default_rng(4), box)

    def test_library_callers_get_the_grid_error(self, env_cfg):
        # validate reuses the sampler's check; gen_dataset still makes it for a caller without a config
        with pytest.raises(ConfigError, match="^n_points: grid sampling needs a square count$"):
            gen_dataset_greybox(env_cfg, 10, "grid", np.random.default_rng(4))


def single_draws(n, sampling, lo, hi, rng):
    """Test-local one-at-a-time candidate stream: one grid pass, or one
    rng.uniform(lo, hi) call per policy forever."""
    if sampling == "grid":
        side = int(round(np.sqrt(n)))
        for t1 in np.linspace(lo[0], hi[0], side):
            for t4 in np.linspace(lo[1], hi[1], side):
                yield InterceptionPolicy(float(t1), float(t4))
    else:
        while True:
            t1, t4 = rng.uniform(lo, hi)
            yield InterceptionPolicy(t1, t4)


def per_policy_dataset(label, n, sampling, rng, k):
    """Test-local copy of the per-policy sampling loop: label(phi) returns a
    landing point or raises. Also returns the number of attempts."""
    lo, hi = sampling_bounds(k)
    ds = Dataset()
    attempts = misses = 0
    for phi in single_draws(n, sampling, lo, hi, rng):
        attempts += 1
        try:
            ds.records.append((phi, label(phi)))
        except MissedBall:
            misses += 1
        if attempts >= max(50, n) and misses > 0.9 * attempts:
            raise InfeasibleRegion(f"{misses} of {attempts} sampled policies missed the ball")
        if len(ds) >= n:
            break
    return ds, attempts


def records(ds):
    return [(phi.theta1, phi.theta4, *landing.tolist()) for phi, landing in ds.records]


def raised(call):
    with pytest.raises(SimulationError) as info:
        call()
    return type(info.value), str(info.value)


class TestBlockDraws:
    """A block of k candidates equals k one-at-a-time draws: values and rng stream."""

    def test_uniform_blocks_match_single_draws(self):
        lo, hi = sampling_bounds(SCENARIO_BOX)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        draw = ttreturn.harness._policy_draws(0, "uniform", lo, hi, rng)
        ref = single_draws(0, "uniform", lo, hi, ref_rng)
        for k in (1, 5, 1, 1, 37, 2, 300):
            block = draw(k)
            assert [(p.theta1, p.theta4) for p in block] == [(p.theta1, p.theta4) for p in islice(ref, k)]
            assert all(type(p.theta1) is float and type(p.theta4) is float for p in block)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.normal() == ref_rng.normal()  # other draws in between keep their stream

    def test_grid_blocks_match_single_pass(self):
        lo, hi = sampling_bounds(SCENARIO_BOX)
        rng = np.random.default_rng(0)
        draw = ttreturn.harness._policy_draws(49, "grid", lo, hi, rng)
        blocks = [draw(k) for k in (1, 10, 3, 40, 5)]
        assert [len(b) for b in blocks] == [1, 10, 3, 35, 0]
        got = [(p.theta1, p.theta4) for b in blocks for p in b]
        assert got == [(p.theta1, p.theta4) for p in single_draws(49, "grid", lo, hi, rng)]
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestBlockedSampling:
    """Blocked labeling replays each outcome in draw order, as the per-policy loop did."""

    MISS_BOX = FeasibleSet((-0.2, 0.9), (-0.05, 0.45))  # about a quarter of the draws miss

    @pytest.mark.parametrize(
        "sampling,n,box,seed",
        [("uniform", 200, MISS_BOX, 0), ("uniform", 300, SCENARIO_BOX, 1),
         ("grid", 100, MISS_BOX, 2), ("grid", 144, SCENARIO_BOX, 3)],
    )
    def test_greybox_matches_per_policy_loop(self, env_cfg, sampling, n, box, seed):
        traj = nominal_trajectory(env_cfg)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ds = gen_dataset_greybox(env_cfg, n, sampling, rng, box)
        ref, attempts = per_policy_dataset(
            lambda phi: predict_landing(phi, traj, MODEL), n, sampling, ref_rng, box)
        assert records(ds) == records(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if box is self.MISS_BOX:  # misses were redrawn or skipped
            assert attempts > len(ds) if sampling == "uniform" else len(ds) < n

    def test_infeasible_region_at_the_same_attempt(self, env_cfg):
        traj = nominal_trajectory(env_cfg)
        box = FeasibleSet((-1.0, 0.4), (-0.05, 0.45))  # about nine in ten draws miss
        got = raised(lambda: gen_dataset_greybox(env_cfg, 20, "uniform", np.random.default_rng(0), box))
        ref = raised(lambda: per_policy_dataset(
            lambda phi: predict_landing(phi, traj, MODEL), 20, "uniform", np.random.default_rng(0), box))
        assert got == ref == (InfeasibleRegion, "46 of 51 sampled policies missed the ball")

    @pytest.mark.parametrize(
        "flight,error",  # flight: the label source, its step cap and its table height
        [(("greybox", MAX_STEPS, 1.3), "NegativeDiscriminant"),
         (("greybox", 300, Z_TABLE), "MaxStepsExceeded"),
         (("env", MAX_STEPS, 1.2), "NegativeDiscriminant"),
         (("env", 700, Z_TABLE), "MaxStepsExceeded")],
    )
    def test_landing_error_raised_in_draw_order(self, env_cfg, monkeypatch, flight, error):
        labels, max_steps, z_table = flight
        traj = nominal_trajectory(env_cfg)
        monkeypatch.setattr(ttreturn.ballistics, "MAX_STEPS", max_steps)
        monkeypatch.setattr(ttreturn.ballistics, "Z_TABLE", z_table)
        assert nominal_trajectory(env_cfg).rows.tolist() == traj.rows.tolist()  # the launch passes the table either way
        ref_rng, calls, landed = np.random.default_rng(2), [], []
        scalar = {"greybox": lambda phi: predict_landing(phi, traj, MODEL),
                  "env": lambda phi: intercept(phi, env_cfg, ref_rng)[0]}[labels]

        def label(phi):
            calls.append(phi)
            landed.append(scalar(phi))
            return landed[-1]

        gen = {"greybox": gen_dataset_greybox, "env": gen_dataset}[labels]
        got = raised(lambda: gen(env_cfg, 200, "uniform", np.random.default_rng(2), self.MISS_BOX))
        ref = raised(lambda: per_policy_dataset(label, 200, "uniform", ref_rng, self.MISS_BOX))
        assert got == ref and got[0].__name__ == error
        assert len(calls) > len(landed) > 0  # a miss and a landing come before the error

    @pytest.mark.parametrize("labels", ["greybox", "env"])
    def test_flight_error_raised_before_infeasible_region(self, env_cfg, monkeypatch, labels):
        # about nine in ten draws miss, which alone is InfeasibleRegion; with the returns
        # cut off at 300 steps, the first hit's flight error, drawn before the 90% rule
        # fires, is raised in its place, as the per-policy loop raised it
        box = FeasibleSet((-1.0, 0.4), (-0.05, 0.45))
        traj, ref_rng = nominal_trajectory(env_cfg), np.random.default_rng(0)
        gen = {"greybox": gen_dataset_greybox, "env": gen_dataset}[labels]
        scalar = {"greybox": lambda phi: predict_landing(phi, traj, MODEL),
                  "env": lambda phi: intercept(phi, env_cfg, ref_rng)[0]}[labels]
        assert raised(lambda: gen(env_cfg, 20, "uniform", np.random.default_rng(0), box))[0] is InfeasibleRegion
        monkeypatch.setattr(ttreturn.ballistics, "MAX_STEPS", 300)
        got = raised(lambda: gen(env_cfg, 20, "uniform", np.random.default_rng(0), box))
        assert got == raised(lambda: per_policy_dataset(scalar, 20, "uniform", ref_rng, box))
        assert got[0].__name__ == "MaxStepsExceeded"

    def test_env_labels_match_per_policy_loop(self, env_cfg):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        ds = gen_dataset(env_cfg, 60, "uniform", rng, self.MISS_BOX)
        ref, attempts = per_policy_dataset(
            lambda phi: intercept(phi, env_cfg, ref_rng)[0], 60, "uniform", ref_rng, self.MISS_BOX)
        assert records(ds) == records(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert attempts > 60


class TestGradCheck:
    def test_greybox_small_errors(self, env_cfg):
        report = grad_check_report("greybox", 10, seed=0, env_cfg=env_cfg)
        assert len(report.entries) == 10
        assert report.median_rel_error < 1e-5
        assert report.max_rel_error < 1e-4

    def test_blackbox_small_errors(self):
        report = grad_check_report("blackbox", 10, seed=0)
        assert report.n_flagged == 0
        assert report.max_rel_error < 1e-7

    def test_greybox_flies_each_policy_once(self, env_cfg, monkeypatch):
        # per policy: one event, one base flight with the tangent, four FD flights
        calls = {"flights": 0, "events": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the base flight goes through greybox's binding, the differences through harness's
        for module in (ttreturn.greybox, ttreturn.harness):
            monkeypatch.setattr(module, "propagate_to_landing",
                                counted("flights", module.propagate_to_landing))
            monkeypatch.setattr(module, "interception_event",
                                counted("events", module.interception_event))
        report = grad_check_report("greybox", 10, seed=0, env_cfg=env_cfg)
        assert len(report.entries) == 10
        assert calls == {"flights": 50, "events": 10}

    def test_open_loop_labels_fly_as_one_block(self, env_cfg, monkeypatch):
        # env dataset labels and baseline-variance trials fly each hit as it is intercepted:
        # one scalar return per hit and no block; grey-box labels fly as one block per dataset
        calls = {"scalar": 0, "blocks": 0, "hits": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name] += 1
                return result
            return wrapper

        for module in (ttreturn.ballistics, ttreturn.env, ttreturn.greybox, ttreturn.harness):
            monkeypatch.setattr(module, "propagate_to_landing", counted("scalar", module.propagate_to_landing))
        monkeypatch.setattr(ttreturn.greybox, "return_landings", counted("blocks", ttreturn.greybox.return_landings))
        monkeypatch.setattr(ttreturn.env, "interception_event", counted("hits", ttreturn.env.interception_event))
        ds = gen_dataset(env_cfg, 60, "uniform", np.random.default_rng(5), TestBlockedSampling.MISS_BOX)
        assert len(ds) == 60 and calls == {"scalar": 60, "blocks": 0, "hits": 60}
        estimate_variance(InterceptionPolicy(0.45, 0.25), 30, env_cfg, np.random.default_rng(0))
        assert calls["scalar"] == calls["hits"] > 60 and calls["blocks"] == 0
        grey = gen_dataset_greybox(env_cfg, 60, "uniform", np.random.default_rng(5), TestBlockedSampling.MISS_BOX)
        assert len(grey) == 60 and calls["blocks"] == 1 and calls["scalar"] == calls["hits"]

    def test_coupled_mode_checks_the_coupled_gradient(self, tmp_path, env_cfg):
        # the grad-check driver passes couple_geometry on: its summary is the
        # coupled report's, whose differences re-intercept the ball
        report = grad_check_report("greybox", 10, seed=0, env_cfg=env_cfg, coupled=True)
        frozen = grad_check_report("greybox", 10, seed=0, env_cfg=env_cfg)
        assert [e.phi for e in report.entries] == [e.phi for e in frozen.entries]
        assert report.median_rel_error < 1e-5 and report.max_rel_error < 1e-4
        assert report.median_rel_error != frozen.median_rel_error
        cfg = ExperimentConfig(mode="grad-check", out_dir=str(tmp_path), n_points=10, seed=0, couple_geometry=True)
        summary = run_experiment(cfg)
        assert (summary["median_rel_error"], summary["max_rel_error"]) == (report.median_rel_error,
                                                                         report.max_rel_error)
        # every theta1 of this box lies within 1e-6 rad of one sample's azimuth,
        # so each +-1e-5 difference crosses into the next pair: all flagged
        x, y = nominal_trajectory(env_cfg).rows[6 * 272 : 6 * 272 + 2].tolist()
        az = base_azimuth(x, y)
        k = FeasibleSet((az - SAMPLING_MARGIN - 1e-6, az + SAMPLING_MARGIN + 1e-6), SCENARIO_BOX.theta4_bounds)
        assert grad_check_report("greybox", 5, seed=0, env_cfg=env_cfg, k=k, coupled=True).n_flagged == 5
        assert grad_check_report("greybox", 5, seed=0, env_cfg=env_cfg, k=k).n_flagged < 5

    def test_blackbox_draw_order(self):
        # each entry: the random model's weights, its output scaling, then the policy
        report = grad_check_report("blackbox", 3, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5))
        lo, hi = sampling_bounds(SCENARIO_BOX)
        box_lo, box_hi = np.array(SCENARIO_BOX.theta1_bounds + SCENARIO_BOX.theta4_bounds).reshape(2, 2).T
        sizes = [2, 4, 4, 4, 4, 2]
        assert len(report.entries) == 3
        for entry in report.entries:
            layers = [(rng.uniform(-1.0, 1.0, size=(m, n)), rng.uniform(-1.0, 1.0, size=m))
                      for n, m in zip(sizes[:-1], sizes[1:])]
            mean, std = rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.5, 2.0, size=2)
            t1, t4 = rng.uniform(lo, hi)
            assert (entry.phi.theta1, entry.phi.theta4) == (t1, t4)
            model = MlpModel(layers, (box_lo + box_hi) / 2.0, (box_hi - box_lo) / 2.0, mean, std)
            phi = InterceptionPolicy(t1, t4)
            fd = central_difference(partial(mlp_forward, model), phi, ttreturn.harness.FD_STEP)
            rel = np.linalg.norm(mlp_jacobian(model, phi) - fd) / max(np.linalg.norm(fd), 1e-12)
            assert entry.rel_error == rel and not entry.flagged

    def test_deterministic(self, env_cfg):
        a = grad_check_report("greybox", 3, seed=5, env_cfg=env_cfg)
        b = grad_check_report("greybox", 3, seed=5, env_cfg=env_cfg)
        assert [e.rel_error for e in a.entries] == [e.rel_error for e in b.entries]

    def test_rejects_unknown_kind(self):
        message = "predictor: unknown predictor 'whitebox', expected one of ('greybox', 'blackbox')"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            grad_check_report("whitebox", 1, seed=0)

    def test_greybox_infeasible_box_raises(self, tmp_path):
        # no policy in this box intercepts the ball: the sampler's miss rule stops the check
        cfg = ExperimentConfig(mode="grad-check", predictor="greybox", out_dir=str(tmp_path),
                               n_points=10, box_theta1=(-1.6, -1.2))

        def timeout(signum, frame):
            raise AssertionError("grad-check did not stop")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with pytest.raises(InfeasibleRegion, match="^50 of 50 sampled policies missed the ball$"):
                run_experiment(cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_no_clean_entry_gives_nan_footer(self, tmp_path):
        # seed 27's only policy is flagged: its finite differences change k_max
        report = grad_check_report("greybox", 1, seed=27)
        assert report.n_flagged == 1
        path = tmp_path / "report.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(report.median_rel_error) and np.isnan(report.max_rel_error)
            report.write(path, ())
        assert path.read_text().splitlines()[-3:] == [
            "# median_rel_error=nan", "# max_rel_error=nan", "# n_flagged=1"]

    def test_report_file(self, tmp_path, env_cfg):
        report = grad_check_report("blackbox", 3, seed=1)
        path = tmp_path / "report.csv"
        report.write(path, comments=("seed=1",))
        text = path.read_text()
        assert text.startswith("# seed=1\n")
        assert "index,theta1,theta4,rel_error,flagged" in text
        assert "# median_rel_error=" in text
        assert "# n_flagged=" in text


class TestHelpers:
    def test_derived_seeds_deterministic(self):
        a = derived_seeds(2024, 10)
        b = derived_seeds(2024, 10)
        assert a == b
        assert len(set(a)) == 10
        assert derived_seeds(2025, 10) != a

    def test_iters_to_threshold(self):
        target = np.array([0.0, 0.0])
        from ttreturn.optimizer import IterationRecord

        log = RunLog()
        for i, pt in enumerate([[1.0, 0.0], [0.3, 0.0], [0.1, 0.0]], start=1):
            log.records.append(
                IterationRecord(
                    i=i,
                    phi=InterceptionPolicy(0.0, 0.0),
                    r_landing=np.array(pt),
                    alpha=0.1,
                    loss=0.0,
                    eps=0.0,
                    sigma=0.0,
                    r_bar=np.zeros(2),
                )
            )
        assert iters_to_threshold(log, target) == 3
        assert iters_to_threshold(log, np.array([10.0, 0.0])) == -1


# small sizes for one seeded call of each mode
SMALL_RUNS = {
    "grad-check": dict(n_points=4),
    "baseline-variance": dict(n_trials=10, variance_policies=((0.45, 0.25),)),
    "gen-data": dict(n_points=20),
    "train-blackbox": dict(epochs=5),
    "run": dict(n_iters=3),
    "sweep": dict(n_iters=2, n_seeds=1, sweep_targets=((-1.0, 0.4), (-1.2, 0.6))),
}


class TestRunExperiment:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_repeats_byte_identical(self, tmp_path, mode):
        outcomes = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            if mode == "train-blackbox":
                run_experiment(ExperimentConfig(mode="gen-data", seed=3, out_dir=out, n_points=30,
                                                labels="greybox"))
            summary = run_experiment(ExperimentConfig(mode=mode, seed=3, out_dir=out, **SMALL_RUNS[mode]))
            paths = summary.pop("artifacts")
            contents = [pathlib.Path(path).read_bytes() for path in paths]
            outcomes.append((summary, [os.path.relpath(path, out) for path in paths], contents))
        assert outcomes[0] == outcomes[1]

    def test_run_mode_artifacts_and_echo(self, tmp_path):
        cfg = ExperimentConfig(
            mode="run", seed=3, out_dir=str(tmp_path / "out"), n_iters=5, alpha1=0.1
        )
        summary = run_experiment(cfg)
        assert summary["final_eps"] >= 0.0
        (path,) = summary["artifacts"]
        text = open(path).read()
        assert f"# config={cfg.config_hash()}" in text
        assert "# seed=3" in text

    def test_run_mode_deterministic_across_out_dirs(self, tmp_path):
        base = dict(mode="run", seed=4, n_iters=5, alpha1=0.1)
        s1 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "a"), **base))
        s2 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "b"), **base))
        b1 = open(s1["artifacts"][0], "rb").read()
        b2 = open(s2["artifacts"][0], "rb").read()
        assert b1 == b2

    def test_run_csv_metrics_recompute(self, tmp_path):
        cfg = ExperimentConfig(
            mode="run", seed=6, out_dir=str(tmp_path / "out"), n_iters=10, alpha1=0.1
        )
        summary = run_experiment(cfg)
        log, _ = read_run_csv(summary["artifacts"][0])
        target = np.asarray(cfg.target)
        pts = np.array([rec.r_landing for rec in log.records])
        for i, rec in enumerate(log.records):
            head = pts[: i + 1]
            rbar = head.mean(axis=0)
            assert rec.eps == pytest.approx(np.linalg.norm(target - rbar), abs=1e-6)
            sigma = np.sqrt(np.mean(np.sum((head - rbar) ** 2, axis=1)))
            assert rec.sigma == pytest.approx(sigma, abs=1e-6)

    def test_sweep_targets_summary(self, tmp_path):
        cfg = ExperimentConfig(
            mode="sweep",
            seed=1,
            out_dir=str(tmp_path / "out"),
            sweep_kind="targets",
            sweep_targets=((-1.0, 0.4), (-1.2, 0.6)),
            phi1=(0.5, 0.2),
            n_seeds=2,
            n_iters=2,
            alpha1=0.1,
        )
        summary = run_experiment(cfg)
        assert summary["n_runs"] == 4
        lines = [
            l for l in open(summary["artifacts"][0]).read().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0].startswith("run,label,seed,")
        assert len(lines) == 5
        labels = {l.split(",")[1] for l in lines[1:]}
        assert labels == {"target0", "target1"}
        for art in summary["artifacts"][1:]:
            assert os.path.exists(art)

    def test_library_sweep_starts_at_sweep_start(self, tmp_path):
        # no phi1: run_experiment's targets sweep starts where `ttreturn sweep` does,
        # and each run CSV carries its own derived seed and the config hash
        cfg = ExperimentConfig(mode="sweep", seed=3, out_dir=str(tmp_path / "out"),
                               sweep_targets=((-1.2, 0.6),), n_seeds=2, n_iters=1)
        summary = run_experiment(cfg)
        rows = open(summary["artifacts"][0]).read().splitlines()[3:]
        assert [row.split(",")[3:5] for row in rows] == [["0.63", "0.15"]] * 2
        for path, seed in zip(summary["artifacts"][1:], derived_seeds(3, 2), strict=True):
            assert read_run_csv(path)[1] == {"seed": str(seed), "config": cfg.config_hash()}

    def test_sweep_inits_uses_initial_policies(self, tmp_path):
        cfg = ExperimentConfig(
            mode="sweep",
            seed=2,
            out_dir=str(tmp_path / "out"),
            sweep_kind="inits",
            initial_policies=((0.40, 0.20), (0.55, 0.30)),
            target=(-1.2, 0.6),
            n_replicates=1,
            n_iters=2,
            alpha1=0.1,
        )
        summary = run_experiment(cfg)
        assert summary["n_runs"] == 2
        lines = [
            l for l in open(summary["artifacts"][0]).read().splitlines()
            if l and not l.startswith("#") and not l.startswith("run,")
        ]
        starts = sorted((float(l.split(",")[3]), float(l.split(",")[4])) for l in lines)
        assert starts == [(0.40, 0.20), (0.55, 0.30)]

    @pytest.mark.parametrize("kind,field", [("targets", "sweep_targets"), ("inits", "initial_policies")])
    def test_sweep_rejects_empty_case_list(self, tmp_path, kind, field):
        out = tmp_path / "out"
        cfg = ExperimentConfig(mode="sweep", out_dir=str(out), sweep_kind=kind, **{field: ()})
        with pytest.raises(ConfigError, match=f"^{field}: "):
            run_experiment(cfg)
        assert not out.exists()

    def test_sweep_inits_rejects_policy_outside_box(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig(mode="sweep", out_dir=str(out), sweep_kind="inits", box_theta1=(0.40, 0.72),
                               phi1=(0.5, 0.2), initial_policies=((0.36, 0.16), (0.50, 0.20)))
        with pytest.raises(ConfigError, match=r"^initial_policies\[0\]: outside the feasible box$"):
            run_experiment(cfg)
        assert not out.exists()

    def test_baseline_variance_mode(self, tmp_path):
        cfg = ExperimentConfig(
            mode="baseline-variance",
            seed=42,
            out_dir=str(tmp_path / "out"),
            n_trials=20,
            variance_policies=((0.45, 0.25),),
        )
        summary = run_experiment(cfg)
        assert len(summary["sigmas"]) == 1
        assert 0.1 < summary["sigmas"][0] < 0.4

    def test_train_requires_dataset(self, tmp_path):
        cfg = ExperimentConfig(
            mode="train-blackbox", out_dir=str(tmp_path / "out"),
            dataset_path=str(tmp_path / "missing.csv"),
        )
        with pytest.raises(ConfigError, match="dataset_path"):
            run_experiment(cfg)

    def test_blackbox_run_requires_model(self, tmp_path):
        cfg = ExperimentConfig(
            mode="run", predictor="blackbox", out_dir=str(tmp_path / "out"),
            model_path=str(tmp_path / "missing.json"), n_iters=1,
        )
        with pytest.raises(ConfigError, match="model_path"):
            run_experiment(cfg)

    def test_gen_train_run_pipeline(self, tmp_path):
        out = str(tmp_path / "out")
        gen_cfg = ExperimentConfig(
            mode="gen-data", seed=7, out_dir=out, n_points=60, labels="greybox"
        )
        assert run_experiment(gen_cfg)["n_records"] == 60
        train_cfg = ExperimentConfig(
            mode="train-blackbox", seed=0, out_dir=out, epochs=30
        )
        summary = run_experiment(train_cfg)
        assert np.isfinite(summary["final_train_mse"])
        run_cfg = ExperimentConfig(
            mode="run", predictor="blackbox", seed=1, out_dir=out, n_iters=3, alpha1=0.1
        )
        assert run_experiment(run_cfg)["final_eps"] >= 0.0


class _Captured(Exception):
    """Test-local: carries the gradient that _runs handed to run_online."""


def run_gradient(monkeypatch, cfg):
    def capture(env, gradient, *args, **kwargs):
        raise _Captured(gradient)

    monkeypatch.setattr(ttreturn.harness, "run_online", capture)
    with pytest.raises(_Captured) as info:
        run_experiment(cfg)
    return info.value.args[0]


class TestRunGradients:
    """run and sweep hand run_online a gradient(phi, event) built on the predictor function."""

    def test_greybox_gradient_is_the_predictor_jacobian(self, tmp_path, monkeypatch, nominal_traj):
        phi = InterceptionPolicy(0.45, 0.2)
        for coupled in (False, True):
            cfg = ExperimentConfig(mode="run", out_dir=str(tmp_path), couple_geometry=coupled)
            event = interception_event(nominal_traj, phi.theta1)
            _, jac = predict_landing_with_gradient(phi, event, MODEL, coupled)
            np.testing.assert_array_equal(run_gradient(monkeypatch, cfg)(phi, event), jac)

    @pytest.mark.parametrize("coupled", [False, True], ids=["frozen", "coupled"])
    def test_greybox_gradient_reuses_the_env_event(self, tmp_path, monkeypatch, coupled):
        # each iteration's gradient gets the event the env just returned and
        # differentiates at it, which a fresh interception of the same
        # ball reproduces; so the Jacobian is the one a second interception gave
        launches, intercepts, gradients = [], [], []
        real_launch, real_intercept = ttreturn.env.launch, ttreturn.harness.intercept
        real_gradient = ttreturn.harness.predict_landing_with_gradient

        def spy_launch(*args, **kwargs):
            launches.append(real_launch(*args, **kwargs))
            return launches[-1]

        def spy_intercept(phi, cfg, rng):
            r_landing, event = real_intercept(phi, cfg, rng)
            intercepts.append((phi, event, launches[-1]))
            return r_landing, event

        def spy_gradient(phi, event, physics, coupled_arg):
            record, jac = real_gradient(phi, event, physics, coupled_arg)
            gradients.append((phi, event, physics, coupled_arg, jac))
            return record, jac

        monkeypatch.setattr(ttreturn.env, "launch", spy_launch)
        monkeypatch.setattr(ttreturn.harness, "intercept", spy_intercept)
        monkeypatch.setattr(ttreturn.harness, "predict_landing_with_gradient", spy_gradient)
        run_experiment(ExperimentConfig(mode="run", out_dir=str(tmp_path), n_iters=6, couple_geometry=coupled))
        assert len(intercepts) == len(gradients) == 6
        for (phi, env_event, incoming), (grad_phi, event, physics, coupled_arg, jac) in zip(intercepts, gradients):
            assert grad_phi is phi and event is env_event and physics is MODEL and coupled_arg is coupled
            fresh = interception_event(incoming, phi.theta1)
            assert fresh.dxi_dtheta1 == event.dxi_dtheta1
            assert np.array_equal(fresh.xi_minus, event.xi_minus)
            assert np.array_equal(real_gradient(phi, fresh, MODEL, coupled)[1], jac)

    def test_blackbox_gradient_ignores_incoming(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.json")
        random_model(np.random.default_rng(8), SCENARIO_BOX, lambda fan_in: 1.0).save(path, {})
        cfg = ExperimentConfig(mode="sweep", predictor="blackbox", model_path=path, out_dir=str(tmp_path))
        phi = InterceptionPolicy(0.2, 0.05)
        np.testing.assert_array_equal(run_gradient(monkeypatch, cfg)(phi, "anything"),
                                      mlp_jacobian(MlpModel.load(path), phi))
