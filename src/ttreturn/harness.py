"""Experiment drivers behind the CLI.

Dataset generation, gradient-check reports, baseline-variance estimation,
single online runs and multi-target / multi-init sweeps, all driven by one
JSON-serializable configuration with deterministic seeding and CSV output.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice, product

import numpy as np

from .arm import InterceptionPolicy, interception_event, interception_states
from .blackbox import Dataset, MlpModel, TrainConfig, mlp_forward, mlp_jacobian, random_model, train
from .env import EnvConfig, estimate_variance, intercept, launch, observe, observed_landings
from .errors import AbortedRun, ConfigError, InfeasibleRegion, MissedBall
from .greybox import MODEL, central_difference, frozen_landing_record, predict_landing_with_gradient, predict_landings
from .optimizer import FeasibleSet, RunLog, cell, csv_artifact, run_online

# Nominal scenario: the policy box inside which the arm reliably intercepts
# the launched ball, and the fixtures used by the shipped experiments.
SCENARIO_BOX = FeasibleSet(theta1_bounds=(0.26, 0.72), theta4_bounds=(-0.05, 0.45))
SAMPLING_MARGIN = 0.05  # [rad] kept clear of the box faces when sampling policies
ITERS_THRESHOLD = 0.25  # [m] landing error a run must get below: the iters_to_025 column

RUN_TARGET = (-1.30, 1.35)
RUN_START = (0.66, 0.44)
SWEEP_START = (0.63, 0.15)
SWEEP_TARGETS = (
    (-0.90, 0.30),
    (-1.15, 0.35),
    (-1.35, 0.40),
    (-1.00, 0.60),
    (-1.20, 0.65),
    (-1.35, 0.75),
)
INITIAL_POLICIES = (
    (0.36, 0.16),
    (0.50, 0.20),
    (0.44, 0.32),
    (0.54, 0.30),
    (0.36, 0.28),
    (0.48, 0.24),
)
VARIANCE_POLICIES = ((0.35, 0.10), (0.45, 0.25), (0.60, 0.40))


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _reals(v) -> bool:
    return isinstance(v, (tuple, list)) and all(map(_real, v))


def _as_floats(v):
    """v with every number in it, also inside nested tuples and lists, a float."""
    if isinstance(v, (tuple, list)):
        return [_as_floats(x) for x in v]
    return float(v) if _real(v) else v


# what a config field of each annotated type must hold: (description, test)
FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a number", _real),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple[float, float]": ("a pair of numbers", lambda v: _reals(v) and len(v) == 2),
    "tuple[float, ...]": ("a list of numbers", _reals),
    "tuple[tuple[float, float], ...]": ("a list of number pairs", lambda v: isinstance(v, (tuple, list))
                                        and all(_reals(p) and len(p) == 2 for p in v)),
}


# the experiment modes, in CLI order, each with its subcommand's help; DRIVERS zips them with their drivers
MODE_HELP = {
    "grad-check": "analytic vs finite-difference gradient report",
    "baseline-variance": "landing scatter of fixed policies",
    "gen-data": "sample policies and record landings",
    "train-blackbox": "train the landing-point surrogate",
    "run": "one online optimization run",
    "sweep": "multi-target or multi-init batches of runs",
}
MODES = tuple(MODE_HELP)
PREDICTORS = ("greybox", "blackbox")


def declared(default, flag: str = "", modes: tuple[str, ...] = MODES, help: str | None = None,
             metavar: str | None = None, choices: tuple = (), at_least=None, above=None, length: int = 0):
    """A config field with its one declaration: the CLI `flag` of the subcommands in `modes`,
    with its `help` and `metavar`, and what validate checks beyond the field's type: a value
    in `choices`, every number >= `at_least` or > `above`, an override of `length` numbers."""
    return field(default=default, metadata=dict(flag=flag, modes=modes, help=help, metavar=metavar,
                                                choices=choices, at_least=at_least, above=above, length=length))


@dataclass
class ExperimentConfig:
    """One experiment invocation; echoed (hashed) into every artifact."""

    mode: str = declared("run", choices=MODES)
    seed: int = declared(0, "--seed", help="base random seed", at_least=0)
    out_dir: str = declared("out", "--out", help="output directory")

    # online-run settings
    predictor: str = declared("greybox", "--predictor", choices=PREDICTORS)
    alpha1: float = declared(0.05, "--alpha1", help="initial step length", above=0)
    n_iters: int = declared(200, "--iters", help="number of iterations", at_least=1)
    target: tuple[float, float] = declared(RUN_TARGET, "--target", help="target landing point [m]", metavar="X,Y")
    # empty = the mode's start: SWEEP_START for a sweep, RUN_START otherwise
    phi1: tuple[float, float] = declared((), "--phi1", ("run", "sweep"), "initial policy [rad]", "T1,T4")
    couple_geometry: bool = False

    # feasible box used for projection and policy sampling
    box_theta1: tuple[float, float] = SCENARIO_BOX.theta1_bounds
    box_theta4: tuple[float, float] = SCENARIO_BOX.theta4_bounds

    # dataset / gradient-check settings
    n_points: int = declared(3000, "--n", ("grad-check", "gen-data"), "number of sampled policies", at_least=1)
    sampling: str = declared("uniform", "--sampling", ("gen-data",), choices=("uniform", "grid"))
    labels: str = declared("env", "--labels", ("gen-data",), choices=("env", "greybox"))
    # defaults to <out_dir>/dataset.csv and <out_dir>/model.json
    dataset_path: str = declared("", "--dataset", ("gen-data", "train-blackbox"), "dataset CSV path")
    model_path: str = declared("", "--model", help="trained model file")
    epochs: int = declared(500, "--epochs", ("train-blackbox",), at_least=1)

    # baseline-variance settings
    n_trials: int = declared(200, "--trials", ("baseline-variance",), "trials per policy", at_least=2)
    variance_policies: tuple[tuple[float, float], ...] = VARIANCE_POLICIES

    # sweep settings
    sweep_kind: str = declared("targets", "--kind", ("sweep",), choices=("targets", "inits"))
    sweep_targets: tuple[tuple[float, float], ...] = SWEEP_TARGETS
    initial_policies: tuple[tuple[float, float], ...] = INITIAL_POLICIES
    n_seeds: int = declared(20, at_least=1)       # runs per target (targets sweep)
    n_replicates: int = declared(5, at_least=1)   # runs per initial policy (inits sweep)

    # environment overrides (empty = package defaults)
    landing_noise_std: tuple[float, ...] = declared((), at_least=0, length=2)
    jitter_std: tuple[float, ...] = declared((), at_least=0, length=6)
    nominal_state: tuple[float, ...] = declared((), length=6)

    def start(self) -> tuple[float, float]:
        """phi1, or when it is empty the mode's start: SWEEP_START for a sweep, RUN_START otherwise."""
        return (SWEEP_START if self.mode == "sweep" else RUN_START) if self.phi1 in ((), []) else self.phi1

    def feasible_set(self) -> FeasibleSet:
        return FeasibleSet(tuple(self.box_theta1), tuple(self.box_theta4))

    def env_config(self) -> EnvConfig:
        """The environment with this config's overrides; an empty override keeps the default."""
        overrides = ("nominal_state", "jitter_std", "landing_noise_std")
        return EnvConfig(**{name: np.asarray(getattr(self, name), dtype=float)
                            for name in overrides if getattr(self, name)})

    def resolved_dataset_path(self) -> str:
        return self.dataset_path or os.path.join(self.out_dir, "dataset.csv")

    def resolved_model_path(self) -> str:
        return self.model_path or os.path.join(self.out_dir, "model.json")

    def config_hash(self) -> str:
        # paths only say where artifacts live, not what the experiment is; a float
        # field hashes alike however its numbers are spelled (1 or 1.0); the start stands for phi1
        doc = {f.name: _as_floats(self._value(f.name)) if "float" in f.type else self._value(f.name)
               for f in fields(self) if f.name not in ("out_dir", "dataset_path", "model_path")}
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True, default=list).encode()
        ).hexdigest()[:16]

    def _value(self, name: str):
        return self.start() if name == "phi1" else getattr(self, name)

    def validate(self) -> None:
        for f in fields(self):
            value, spec = self._value(f.name), f.metadata
            want, ok = FIELD_TYPES[f.type]
            if not ok(value):
                raise ConfigError(f"{f.name}: expected {want}, got {value!r}")
            if "float" in f.type and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ConfigError(f"{f.name}: must be finite")
            if spec.get("choices") and value not in spec["choices"]:
                raise ConfigError(f"{f.name}: unknown {f.name} {value!r}, expected one of {spec['choices']}")
            values = value if isinstance(value, (tuple, list)) else (value,)
            if spec.get("at_least") is not None and any(v < spec["at_least"] for v in values):
                raise ConfigError(f"{f.name}: must be >= {spec['at_least']}")
            if spec.get("above") is not None and any(v <= spec["above"] for v in values):
                raise ConfigError(f"{f.name}: must be > {spec['above']}")
            if spec.get("length") and value and len(value) != spec["length"]:
                raise ConfigError(f"{f.name}: expected {spec['length']} components")
        for name in ("box_theta1", "box_theta4"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"{name}: expected (lower, upper) with lower < upper")
        box, kind = self.feasible_set(), self.sweep_kind if self.mode == "sweep" else None
        # only a run and a targets sweep start from phi1
        if (self.mode == "run" or kind == "targets") and not box.contains(InterceptionPolicy(*self.start())):
            raise ConfigError("phi1: outside the feasible box")
        for i, p in enumerate(self.initial_policies if kind == "inits" else ()):
            if not box.contains(InterceptionPolicy(*p)):
                raise ConfigError(f"initial_policies[{i}]: outside the feasible box")
        cases = {"targets": "sweep_targets", "inits": "initial_policies"}.get(kind)
        if cases and not getattr(self, cases):
            raise ConfigError(f"{cases}: a {kind} sweep needs at least one entry")
        if self.mode in ("gen-data", "grad-check"):  # the sampler's refusals: too narrow a box, a non-square grid
            sampling = self.sampling if self.mode == "gen-data" else "uniform"
            _policy_draws(self.n_points, sampling, *sampling_bounds(self.feasible_set()), None)

    @classmethod
    def from_json(cls, path: str, **overrides) -> "ExperimentConfig":
        """Config from a JSON file, with `overrides` over its fields."""
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        for key in doc:
            if key not in cls.__dataclass_fields__:
                raise ConfigError(f"{path}: unknown field {key!r}")
        for f in fields(cls):
            if f.type.startswith("tuple") and isinstance(doc.get(f.name), list):
                doc[f.name] = tuple(tuple(v) if isinstance(v, list) else v for v in doc[f.name])
        return cls(**{**doc, **overrides})


def sampling_bounds(k: FeasibleSet) -> tuple[np.ndarray, np.ndarray]:
    """Policy-box bounds pulled inward by SAMPLING_MARGIN."""
    lo = np.array([k.theta1_bounds[0] + SAMPLING_MARGIN, k.theta4_bounds[0] + SAMPLING_MARGIN])
    hi = np.array([k.theta1_bounds[1] - SAMPLING_MARGIN, k.theta4_bounds[1] - SAMPLING_MARGIN])
    if np.any(lo >= hi):
        raise ConfigError("box: too small for the sampling margin")
    return lo, hi


def nominal_trajectory(env_cfg: EnvConfig):
    """Jitter-free launch of the configured nominal ball."""
    return launch(replace(env_cfg, jitter_std=np.zeros(6)), np.random.default_rng(0))


def _policy_draws(n: int, sampling: str, lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator):
    """draw(k) gives the next k candidate policies: k uniform draws in one rng call
    (the values and the stream of k single draws), or the next points of one grid pass."""
    if sampling == "uniform":
        return lambda k: [InterceptionPolicy(t1, t4) for t1, t4 in rng.uniform(lo, hi, size=(k, 2)).tolist()]
    side = math.isqrt(n)
    if side * side != n:
        raise ConfigError("n_points: grid sampling needs a square count")
    grid = (InterceptionPolicy(*p) for p in product(*(np.linspace(a, b, side).tolist() for a, b in zip(lo, hi))))
    return lambda k: list(islice(grid, k))


def _sample(prepare, label, n: int, sampling: str, rng: np.random.Generator, k: FeasibleSet, block: int = 1) -> list:
    """Sample policies over the box and label them, `block` at a time at most.

    prepare(phis) gives an array of one row of floats per policy and whether each one hit the
    ball. Replayed in draw order, a missed ball is redrawn (uniform sampling) or skipped (grid),
    and the draws stop when over 90% of the attempts miss; then label(phis, rows) labels the
    hits, so that their own errors come before that InfeasibleRegion. Returns the (phi, label) pairs.
    """
    lo, hi = sampling_bounds(k)
    draw = _policy_draws(n, sampling, lo, hi, rng)
    hits, blocks, error = [], [], None
    attempts = misses = 0
    while len(hits) < n and error is None:
        phis = draw(min(n - len(hits), block))
        if not phis:
            break
        rows, hit = prepare(phis)
        for j, ok in enumerate(hit):
            attempts += 1
            misses += not ok
            if attempts >= max(50, n) and misses > 0.9 * attempts:
                error = InfeasibleRegion(f"{misses} of {attempts} sampled policies missed the ball")
                break
        keep = [i for i in range(j + 1) if hit[i]]  # the hits among the policies replayed
        if keep:
            hits += [phis[i] for i in keep]
            blocks.append(rows[keep])
    labels = label(hits, np.concatenate(blocks or [np.empty((0, 6))]))
    if error is not None:
        raise error
    return list(zip(hits, labels))


def _one_by_one(f):
    """A preparer of one-policy blocks from f(phi), which returns a row of floats or raises MissedBall."""
    def prepare(phis):
        try:
            return np.array([f(phis[0])], dtype=float), [True]
        except MissedBall:
            return None, [False]
    return prepare


def gen_dataset(
    env_cfg: EnvConfig,
    n: int,
    sampling: str,
    rng: np.random.Generator,
    k: FeasibleSet = SCENARIO_BOX,
) -> Dataset:
    """Sample policies over the box and label them with noisy env landings; each policy observes
    in turn, as its draws share the sampling rng, and the hits fly as one block at the end."""
    prepare = _one_by_one(lambda phi: observe(phi, env_cfg, rng)[0])
    return Dataset(_sample(prepare, observed_landings, n, sampling, rng, k))


def gen_dataset_greybox(
    env_cfg: EnvConfig,
    n: int,
    sampling: str,
    rng: np.random.Generator,
    k: FeasibleSet = SCENARIO_BOX,
) -> Dataset:
    """Like gen_dataset, but with noiseless first-principles labels; they draw
    nothing, so all the candidates still needed are intercepted as one batch."""
    traj = nominal_trajectory(env_cfg)
    prepare = lambda phis: interception_states(traj, np.array([phi.theta1 for phi in phis], dtype=float))
    return Dataset(_sample(prepare, partial(predict_landings, physics=MODEL), n, sampling, rng, k, block=n))


@dataclass
class GradCheckEntry:
    phi: InterceptionPolicy
    rel_error: float
    flagged: bool


@dataclass
class GradCheckReport:
    """Analytic-vs-finite-difference comparison over random interior policies."""

    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def clean_errors(self) -> np.ndarray:
        return np.array([e.rel_error for e in self.entries if not e.flagged])

    @property
    def n_flagged(self) -> int:
        return sum(e.flagged for e in self.entries)

    @property
    def median_rel_error(self) -> float:
        """Median over the clean entries; NaN when every entry is flagged."""
        return float(np.median(self.clean_errors)) if self.clean_errors.size else math.nan

    @property
    def max_rel_error(self) -> float:
        return float(self.clean_errors.max()) if self.clean_errors.size else math.nan

    def write(self, path: str, comments: tuple[str, ...]) -> None:
        csv_artifact(path, comments, "index,theta1,theta4,rel_error,flagged",
                     ((str(i), e.phi.theta1, e.phi.theta4, e.rel_error, str(int(e.flagged)))
                      for i, e in enumerate(self.entries)),
                     (f"median_rel_error={cell(self.median_rel_error)}", f"max_rel_error={cell(self.max_rel_error)}",
                      f"n_flagged={self.n_flagged}"))


FD_STEP = 1e-5  # [rad] central-difference step of the gradient checks


def _rel_error(jac: np.ndarray, f, phi: InterceptionPolicy) -> float:
    """Relative error of the analytic 2x2 `jac` against central differences of f at phi."""
    fd = central_difference(f, phi, FD_STEP)
    return float(np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1e-12))


def grad_check_report(
    kind: str,
    n_points: int,
    seed: int,
    env_cfg: EnvConfig | None = None,
    k: FeasibleSet = SCENARIO_BOX,
    coupled: bool = False,
) -> GradCheckReport:
    """Compare analytic 2x2 gradients against central finite differences.

    Grey-box checks differentiate greybox.MODEL in the frozen-event
    convention, or if `coupled` with a new interception event at each
    difference. Policies where a finite-difference evaluation changes the
    flight step count k_max or the crossing pair (the event's dxi_dtheta1) are
    flagged instead of failing the tolerance. Their policies come from the
    dataset sampler, so a missed ball is redrawn and InfeasibleRegion is
    raised when over 90% of the draws miss.
    """
    if kind not in PREDICTORS:
        raise ConfigError(f"predictor: unknown predictor {kind!r}, expected one of {PREDICTORS}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    if kind == "blackbox":
        lo, hi = sampling_bounds(k)
        draw, report = _policy_draws(n_points, "uniform", lo, hi, rng), GradCheckReport()
        for _ in range(n_points):
            # a random untrained surrogate; its draws precede its policy's in the rng stream
            model = random_model(rng, k, lambda fan_in: 1.0)
            model.output_mean = rng.uniform(-1.0, 1.0, size=2)
            model.output_std = rng.uniform(0.5, 2.0, size=2)
            (phi,) = draw(1)
            rel = _rel_error(mlp_jacobian(model, phi), partial(mlp_forward, model), phi)
            report.entries.append(GradCheckEntry(phi, rel, False))
        return report

    traj = nominal_trajectory(env_cfg or EnvConfig())

    def check(phi):
        event = interception_event(traj, phi.theta1)
        base, jac = predict_landing_with_gradient(phi, event, MODEL, coupled)
        seen = set()

        def landing(p):
            ev = interception_event(traj, p.theta1) if coupled else event
            rec = frozen_landing_record(p, ev, MODEL)
            seen.add((rec.k_max, ev.dxi_dtheta1))
            return rec.landing_point

        return _rel_error(jac, landing, phi), seen != {(base.k_max, event.dxi_dtheta1)}

    pairs = _sample(_one_by_one(check), lambda phis, rows: rows.tolist(), n_points, "uniform", rng, k)
    return GradCheckReport([GradCheckEntry(phi, rel, bool(flagged)) for phi, (rel, flagged) in pairs])


def derived_seeds(base_seed: int, n: int) -> list[int]:
    """Deterministic per-run seeds spawned from one base seed."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(n)]


def iters_to_threshold(log: RunLog, target: np.ndarray) -> int:
    """First iteration whose instantaneous landing error drops below
    ITERS_THRESHOLD, or -1 if it never does."""
    for rec in log.records:
        if float(np.linalg.norm(rec.r_landing - target)) < ITERS_THRESHOLD:
            return rec.i
    return -1


def _runs(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, plan: list) -> list[RunLog]:
    """Online runs with one predictor, one per (path, target, phi1, seed) row of
    the plan; each log is written to its path with its seed and the config hash,
    also when the run aborts."""
    if cfg.predictor == "greybox":
        gradient = lambda phi, event: predict_landing_with_gradient(phi, event, MODEL, cfg.couple_geometry)[1]
    elif os.path.exists(cfg.resolved_model_path()):
        model = MlpModel.load(cfg.resolved_model_path())
        gradient = lambda phi, event: mlp_jacobian(model, phi)
    else:
        raise ConfigError(f"model_path: no trained model at {cfg.resolved_model_path()}")
    env = lambda phi, rng: intercept(phi, env_cfg, rng)
    logs = []
    for path, target, phi1, seed in plan:
        comments = (f"seed={seed}", f"config={echo}")
        try:
            log = run_online(env, gradient, target, phi1, cfg.n_iters, cfg.alpha1, cfg.feasible_set(), seed)
        except AbortedRun as exc:
            exc.log.to_csv(path, comments)
            raise
        log.to_csv(path, comments)
        logs.append(log)
    return logs


def _grad_check(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    report = grad_check_report(cfg.predictor, cfg.n_points, cfg.seed, env_cfg, cfg.feasible_set(),
                               cfg.couple_geometry)
    path = os.path.join(cfg.out_dir, f"grad_check_{cfg.predictor}.csv")
    report.write(path, comments)
    return {
        "median_rel_error": report.median_rel_error,
        "max_rel_error": report.max_rel_error,
        "n_flagged": report.n_flagged,
        "artifacts": [path],
    }


def _baseline_variance(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    path = os.path.join(cfg.out_dir, "baseline_variance.csv")
    sigmas = []

    def rows():  # each policy's row as its estimate finishes, so a later InfeasibleRegion keeps it
        for t1, t4 in cfg.variance_policies:
            mean, sigma = estimate_variance(InterceptionPolicy(t1, t4), cfg.n_trials, env_cfg, rng)
            sigmas.append(sigma)
            yield t1, t4, str(cfg.n_trials), *mean.tolist(), sigma
    csv_artifact(path, comments, "theta1,theta4,n_trials,mean_x,mean_y,sigma", rows())
    return {"sigmas": sigmas, "artifacts": [path]}


def _gen_data(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    gen = gen_dataset_greybox if cfg.labels == "greybox" else gen_dataset
    ds = gen(env_cfg, cfg.n_points, cfg.sampling, rng, cfg.feasible_set())
    path = cfg.resolved_dataset_path()
    ds.save_csv(path, comments)
    return {"n_records": len(ds), "artifacts": [path]}


def _train_blackbox(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    ds_path = cfg.resolved_dataset_path()
    if not os.path.exists(ds_path):
        raise ConfigError(f"dataset_path: no dataset at {ds_path}")
    ds = Dataset.load_csv(ds_path)
    model, history = train(ds, TrainConfig(epochs=cfg.epochs, seed=cfg.seed), cfg.feasible_set())
    model_path = cfg.resolved_model_path()
    model.save(model_path, meta={"seed": cfg.seed, "config": echo})
    hist_path = os.path.join(cfg.out_dir, "train_history.csv")
    csv_artifact(hist_path, comments, "epoch,train_mse,val_mse",
                 ((str(ep), tr, va) for ep, (tr, va) in enumerate(zip(history["train_mse"], history["val_mse"]), 1)))
    return {
        "final_train_mse": history["train_mse"][-1],
        "final_val_mse": history["val_mse"][-1],
        "artifacts": [model_path, hist_path],
    }


def _run(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    target = np.asarray(cfg.target, dtype=float)
    path = os.path.join(cfg.out_dir, f"run_{cfg.predictor}_seed{cfg.seed}.csv")
    (log,) = _runs(cfg, env_cfg, echo, [(path, target, InterceptionPolicy(*cfg.start()), cfg.seed)])
    rec = log.records[-1]
    return {
        "final_eps": rec.eps,
        "final_sigma": rec.sigma,
        "iters_to_025": iters_to_threshold(log, target),
        "artifacts": [path],
    }


def _sweep(cfg: ExperimentConfig, env_cfg: EnvConfig, echo: str, comments: tuple) -> dict:
    """Derived-seed runs per stored target or per initial policy, then a summary."""
    if cfg.sweep_kind == "targets":
        runs_per, cases = cfg.n_seeds, [(f"target{i}", t, cfg.start()) for i, t in enumerate(cfg.sweep_targets)]
    else:
        runs_per, cases = cfg.n_replicates, [(f"init{i}", cfg.target, p) for i, p in enumerate(cfg.initial_policies)]
    seeds = iter(derived_seeds(cfg.seed, len(cases) * runs_per))
    named = [((label, f"{label}_rep{rep}"), np.asarray(target, dtype=float), InterceptionPolicy(*phi1), next(seeds))
             for label, target, phi1 in cases for rep in range(runs_per)]
    plan = [(os.path.join(cfg.out_dir, f"sweep_{run}.csv"), *row) for (_, run), *row in named]
    logs = _runs(cfg, env_cfg, echo, plan)
    summary_path = os.path.join(cfg.out_dir, f"sweep_{cfg.sweep_kind}_summary.csv")
    columns = "run,label,seed,theta1_1,theta4_1,target_x,target_y,final_eps,final_sigma,iters_to_025,n_failures"
    csv_artifact(summary_path, comments, columns, (
        (run, label, str(seed), phi1.theta1, phi1.theta4, *target.tolist(),
         log.records[-1].eps, log.records[-1].sigma, str(iters_to_threshold(log, target)), str(log.n_failures))
        for ((label, run), target, phi1, seed), log in zip(named, logs)))
    return {"n_runs": len(plan), "artifacts": [summary_path] + [row[0] for row in plan]}


# one driver (cfg, env_cfg, config_hash, comments) -> summary per experiment mode
DRIVERS = dict(zip(MODES, (_grad_check, _baseline_variance, _gen_data, _train_blackbox, _run, _sweep)))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Drive one experiment mode; writes artifacts, returns a summary dict."""
    cfg.validate()
    echo = cfg.config_hash()
    return DRIVERS[cfg.mode](cfg, cfg.env_config(), echo, (f"seed={cfg.seed}", f"config={echo}"))
