"""The three benchmark workloads.

Each workload is a closed loop driven through `ttreturn.harness.run_experiment`
with `ExperimentConfig`s built from the workload seed alone. A pass is the
workload's fixed, seed-determined amount of work; the runner repeats passes
to time them, so every repeat must write byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
import time

# run lengths; chosen so that a pass takes about 3 s on a 2-core machine
GREYBOX_ITERS = 200          # one long online run, as in acceptance criterion 4
SURROGATE_POINTS = 1500      # gen-data records of the surrogate pipeline
SURROGATE_EPOCHS = 300       # train-blackbox epochs of the surrogate pipeline
SWEEP_SEEDS = 8              # derived-seed runs per stored target

# thresholds of acceptance criteria 4, 5 and 7
MAX_FINAL_EPS_M = 0.10
MIN_HIT10_FRAC = 0.95
MAX_VAL_RMSE_M = 0.05


def read_csv(path: str) -> tuple[dict[str, str], list[list[str]]]:
    """`# key=value` comment lines and data rows of a ttreturn CSV artifact."""
    comments: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path) as f:
        header_seen = False
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                comments.setdefault(key, value)
            elif not header_seen:
                header_seen = True
            elif line:
                rows.append(line.split(","))
    return comments, rows


def provenance_checks(path: str, seed: int, config: str) -> list[tuple[bool, str]]:
    """The artifact names the seed and config hash it was made from.

    CSV artifacts carry `# seed=` and `# config=` lines; the model JSON
    carries the same two fields in its `meta` block.
    """
    name = os.path.basename(path)
    if path.endswith(".json"):
        with open(path) as f:
            meta = json.load(f).get("meta", {})
        found_seed, found_config = meta.get("seed"), meta.get("config")
    else:
        comments, _ = read_csv(path)
        found_seed, found_config = comments.get("seed"), comments.get("config")
    return [
        (str(found_seed) == str(seed), f"{name}: seed {found_seed!r}, expected {seed}"),
        (found_config == config, f"{name}: config {found_config!r}, expected {config}"),
    ]


def run_quality(paths: list[str]) -> tuple[float, float, int]:
    """Mean final eps [m], miss fraction and completed iterations over run CSVs."""
    finals, iters, misses = [], 0, 0
    for path in paths:
        comments, rows = read_csv(path)
        finals.append(float(rows[-1][7]))
        iters += len(rows)
        misses += int(comments["failures"])
    return sum(finals) / len(finals), misses / (iters + misses), iters


# (name, unit, better, bound) of every end-to-end metric; bound is the share
# of the parent's median by which a change may make the metric worse
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


class Workload:
    name = ""
    why = ""
    setup_repeats = 15

    def configs(self, h, seed: int, setup_dir: str, pass_dir: str) -> dict:
        raise NotImplementedError

    def build(self, h, cfgs: dict) -> list[str]:
        """Set-up work beyond import, config and nominal trajectory."""
        return []

    def run_pass(self, h, cfgs: dict, clock) -> tuple[dict[str, float], list[str]]:
        """Runs the pass; returns seconds per phase, as `clock` measures
        them, and the artifact paths."""
        raise NotImplementedError

    def evaluate(self, h, cfgs: dict, artifacts: list[str], phases: dict[str, float]):
        """Workload metrics {name: (value, unit)} and correctness checks."""
        raise NotImplementedError

    def setup_checks(self, cfgs: dict, artifacts: list[str]) -> list[tuple[bool, str]]:
        return []


def _timed(h, cfg, clock) -> tuple[float, dict]:
    t0 = clock()
    summary = h.run_experiment(cfg)
    return clock() - t0, summary


class GreyboxLong(Workload):
    name = "greybox-long"
    why = ("one long greybox run from RUN_START: the paper's online loop, "
           "bound by the truth flight and landing_state_jacobian; O(i) metrics shows")

    def configs(self, h, seed, setup_dir, pass_dir):
        return {"run": h.ExperimentConfig(
            mode="run", predictor="greybox", seed=seed, alpha1=0.05, n_iters=GREYBOX_ITERS,
            target=h.RUN_TARGET, phi1=h.RUN_START, out_dir=pass_dir,
        )}

    def run_pass(self, h, cfgs, clock):
        dt, summary = _timed(h, cfgs["run"], clock)
        return {"run": dt}, summary["artifacts"]

    def evaluate(self, h, cfgs, artifacts, phases):
        cfg = cfgs["run"]
        final_eps, miss_frac, iters = run_quality(artifacts)
        checks = [(iters == cfg.n_iters, f"run CSV has {iters} of {cfg.n_iters} iterations")]
        checks += provenance_checks(artifacts[0], cfg.seed, cfg.config_hash())
        checks.append((final_eps < MAX_FINAL_EPS_M,
                       f"final_eps_m {final_eps:.4f} >= {MAX_FINAL_EPS_M}"))
        metrics = {
            "iters_per_s": (iters / phases["run"], "1/s"),
            "miss_frac": (miss_frac, "ratio"),
            "final_eps_m": (final_eps, "m"),
        }
        return metrics, checks


def _surrogate_configs(h, seed: int, out_dir: str) -> dict:
    return {
        "gen": h.ExperimentConfig(mode="gen-data", labels="greybox", seed=seed,
                                  n_points=SURROGATE_POINTS, out_dir=out_dir),
        "train": h.ExperimentConfig(mode="train-blackbox", seed=seed,
                                    epochs=SURROGATE_EPOCHS, out_dir=out_dir),
    }


def _build_surrogate(h, cfgs: dict, clock=time.perf_counter) -> tuple[dict[str, float], list[str]]:
    t_gen, gen = _timed(h, cfgs["gen"], clock)
    t_train, train = _timed(h, cfgs["train"], clock)
    return {"gen": t_gen, "train": t_train}, gen["artifacts"] + train["artifacts"]


def _surrogate_checks(cfgs: dict, artifacts: list[str]) -> list[tuple[bool, str]]:
    checks = []
    for path in artifacts:
        cfg = cfgs["gen"] if path.endswith("dataset.csv") else cfgs["train"]
        checks += provenance_checks(path, cfg.seed, cfg.config_hash())
    return checks


class BlackboxSweep(Workload):
    name = "blackbox-sweep"
    why = ("criterion-5 targets sweep with the MLP: many short runs bound by env.launch, "
           "many small CSVs; the model is built in set-up")
    setup_repeats = 3

    def configs(self, h, seed, setup_dir, pass_dir):
        cfgs = _surrogate_configs(h, seed, setup_dir)
        cfgs["sweep"] = h.ExperimentConfig(
            mode="sweep", sweep_kind="targets", predictor="blackbox", seed=seed,
            alpha1=0.15, n_iters=10, phi1=h.SWEEP_START, n_seeds=SWEEP_SEEDS,
            model_path=cfgs["train"].resolved_model_path(), out_dir=pass_dir,
        )
        return cfgs

    def build(self, h, cfgs):
        return _build_surrogate(h, cfgs)[1]

    def setup_checks(self, cfgs, artifacts):
        return _surrogate_checks(cfgs, artifacts)

    def run_pass(self, h, cfgs, clock):
        dt, summary = _timed(h, cfgs["sweep"], clock)
        return {"sweep": dt}, summary["artifacts"]

    def evaluate(self, h, cfgs, artifacts, phases):
        cfg = cfgs["sweep"]
        summary_path, run_paths = artifacts[0], artifacts[1:]
        _, rows = read_csv(summary_path)
        n_runs = len(cfg.sweep_targets) * cfg.n_seeds
        checks = [(len(rows) == n_runs == len(run_paths),
                   f"{len(rows)} summary rows and {len(run_paths)} run CSVs, expected {n_runs}")]
        checks += provenance_checks(summary_path, cfg.seed, cfg.config_hash())
        expected_seeds = h.derived_seeds(cfg.seed, n_runs)
        for path, row, seed in zip(run_paths, rows, expected_seeds):
            checks.append((int(row[2]) == seed, f"{row[0]}: seed {row[2]}, expected {seed}"))
            checks += provenance_checks(path, seed, cfg.config_hash())
        final_eps, miss_frac, iters = run_quality(run_paths)
        hit10 = sum(0 <= int(row[9]) <= 10 for row in rows) / len(rows)
        checks.append((hit10 >= MIN_HIT10_FRAC, f"hit10_frac {hit10:.3f} < {MIN_HIT10_FRAC}"))
        metrics = {
            "iters_per_s": (iters / phases["sweep"], "1/s"),
            "miss_frac": (miss_frac, "ratio"),
            "final_eps_m": (final_eps, "m"),
            "hit10_frac": (hit10, "ratio"),
        }
        return metrics, checks


class SurrogateBuild(Workload):
    name = "surrogate-build"
    why = ("gen-data --labels greybox then train-blackbox: forward-only flights at model dt, "
           "an Adam-bound phase, a dataset write and read")

    def configs(self, h, seed, setup_dir, pass_dir):
        return _surrogate_configs(h, seed, pass_dir)

    def run_pass(self, h, cfgs, clock):
        return _build_surrogate(h, cfgs, clock)

    def evaluate(self, h, cfgs, artifacts, phases):
        gen, train = cfgs["gen"], cfgs["train"]
        checks = _surrogate_checks(cfgs, artifacts)
        _, records = read_csv(gen.resolved_dataset_path())
        _, history = read_csv(os.path.join(train.out_dir, "train_history.csv"))
        checks.append((len(records) == gen.n_points,
                       f"dataset has {len(records)} of {gen.n_points} records"))
        checks.append((len(history) == train.epochs,
                       f"history has {len(history)} of {train.epochs} epochs"))
        val_rmse = math.sqrt(float(history[-1][2]))
        checks.append((val_rmse < MAX_VAL_RMSE_M, f"val_rmse_m {val_rmse:.4f} >= {MAX_VAL_RMSE_M}"))

        tc = h.TrainConfig(epochs=train.epochs)
        n = len(records)
        n_train = n - (int(round(tc.validation_fraction * n)) if n >= 10 else 0)
        adam_steps = train.epochs * math.ceil(n_train / tc.batch_size)
        metrics = {
            "records_per_s": (n / phases["gen"], "1/s"),
            "adam_steps_per_s": (adam_steps / phases["train"], "1/s"),
            "val_rmse_m": (val_rmse, "m"),
        }
        return metrics, checks


WORKLOADS = {w.name: w for w in (GreyboxLong(), BlackboxSweep(), SurrogateBuild())}
