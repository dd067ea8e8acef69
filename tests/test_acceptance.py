"""Acceptance suite: end-to-end behavioral criteria with stated tolerances.

Each test prints one PASS/FAIL line. The trained surrogate model used by the
blackbox criteria is built once per session from 3000 noiseless
first-principles labels.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ttreturn
from conftest import fine_step_landing, read_run_csv
from ttreturn.arm import InterceptionPolicy, interception_event, racket_rotation, racket_velocity
from ttreturn.ballistics import Z_TABLE
from ttreturn.greybox import MODEL, predict_landing
from ttreturn.harness import (
    ExperimentConfig,
    RUN_START,
    RUN_TARGET,
    SCENARIO_BOX,
    SWEEP_START,
    grad_check_report,
    run_experiment,
    sampling_bounds,
)
from ttreturn.impact import racket_impact


def report(num: int, name: str, checks: list, detail: str = "") -> None:
    """One line per criterion; checks is a list of (bool, message)."""
    ok = all(c for c, _ in checks)
    line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    failed = [msg for c, msg in checks if not c]
    assert ok, f"criterion {num} ({name}): " + "; ".join(failed)


@pytest.fixture(scope="session")
def surrogate(tmp_path_factory):
    """Dataset, trained model and timing shared by the blackbox criteria."""
    out = str(tmp_path_factory.mktemp("surrogate"))
    gen_cfg = ExperimentConfig(
        mode="gen-data", seed=7, out_dir=out, n_points=3000, labels="greybox"
    )
    run_experiment(gen_cfg)
    t0 = time.perf_counter()
    train_cfg = ExperimentConfig(mode="train-blackbox", seed=0, out_dir=out, epochs=500)
    summary = run_experiment(train_cfg)
    return {
        "out_dir": out,
        "model_path": train_cfg.resolved_model_path(),
        "final_val_mse": summary["final_val_mse"],
        "train_seconds": time.perf_counter() - t0,
    }


def read_summary_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("#") or line.startswith("run,"):
                continue
            rows.append(line.strip().split(","))
    return rows


def test_criterion_1_greybox_gradient_fidelity():
    t0 = time.perf_counter()
    rep = grad_check_report("greybox", 100, seed=0)
    elapsed = time.perf_counter() - t0
    checks = [
        (rep.median_rel_error < 1e-5, f"median {rep.median_rel_error:.2e} >= 1e-5"),
        (rep.max_rel_error < 1e-4, f"max {rep.max_rel_error:.2e} >= 1e-4"),
        (rep.n_flagged < 5, f"{rep.n_flagged} flagged boundary cases"),
        (elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s"),
    ]
    report(1, "greybox gradient fidelity", checks,
           f"median={rep.median_rel_error:.1e} max={rep.max_rel_error:.1e} "
           f"flagged={rep.n_flagged} {elapsed:.1f}s")


def test_criterion_2_blackbox_gradient_fidelity():
    t0 = time.perf_counter()
    rep = grad_check_report("blackbox", 100, seed=0)
    elapsed = time.perf_counter() - t0
    checks = [
        (rep.max_rel_error < 1e-7, f"max {rep.max_rel_error:.2e} >= 1e-7"),
        (elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s"),
    ]
    report(2, "blackbox gradient fidelity", checks,
           f"max={rep.max_rel_error:.1e} {elapsed:.1f}s")


def test_criterion_3_inherent_variance(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="baseline-variance", seed=42, out_dir=str(tmp_path), n_trials=200
    )
    sigmas = run_experiment(cfg)["sigmas"]
    elapsed = time.perf_counter() - t0
    checks = [
        (0.22 <= s <= 0.28, f"sigma {s:.3f} outside [0.22, 0.28]") for s in sigmas
    ]
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"))
    report(3, "inherent landing variance", checks,
           "sigmas=" + "/".join(f"{s:.3f}" for s in sigmas) + f" {elapsed:.1f}s")


def test_criterion_4_long_run_robustness(tmp_path, surrogate):
    t0 = time.perf_counter()
    checks = []
    mean_final = {}
    for pred in ("greybox", "blackbox"):
        finals = []
        for seed in range(1, 6):
            cfg = ExperimentConfig(
                mode="run", predictor=pred, seed=seed, alpha1=0.05, n_iters=200,
                target=RUN_TARGET, phi1=RUN_START,
                out_dir=str(tmp_path), model_path=surrogate["model_path"],
            )
            summary = run_experiment(cfg)
            log, _ = read_run_csv(summary["artifacts"][0])
            eps = np.array([r.eps for r in log.records])
            sigma = log.records[-1].sigma
            finals.append(eps[-1])
            tag = f"{pred} seed {seed}"
            checks.append((0.20 <= sigma <= 0.30, f"{tag}: sigma200 {sigma:.3f}"))
            checks.append((eps[-1] < 0.10, f"{tag}: eps200 {eps[-1]:.3f}"))
            envelope = all(
                eps[i - 1] < 1.5 * eps[0] / math.sqrt(i) for i in range(20, 201)
            )
            checks.append((envelope, f"{tag}: eps exceeds 1.5 eps1/sqrt(i) envelope"))
        mean_final[pred] = float(np.mean(finals))
    diff = abs(mean_final["greybox"] - mean_final["blackbox"])
    checks.append((diff < 0.05, f"mean eps200 gap {diff:.3f} >= 0.05"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s"))
    report(4, "200-iteration robustness", checks,
           f"mean_eps gb={mean_final['greybox']:.3f} bb={mean_final['blackbox']:.3f} "
           f"diff={diff:.3f} {elapsed:.1f}s")


def test_criterion_5_rapid_convergence(tmp_path, surrogate):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="sweep", sweep_kind="targets", predictor="blackbox", seed=2024,
        alpha1=0.15, n_iters=10, phi1=SWEEP_START,
        out_dir=str(tmp_path), model_path=surrogate["model_path"],
    )
    summary = run_experiment(cfg)
    rows = read_summary_rows(summary["artifacts"][0])
    iters = [int(r[-2]) for r in rows]
    total = len(iters)
    hit5 = sum(0 <= it <= 5 for it in iters)
    hit10 = sum(0 <= it <= 10 for it in iters)
    elapsed = time.perf_counter() - t0
    checks = [
        (total == 120, f"expected 120 runs, got {total}"),
        (hit5 >= 0.8 * total, f"below 0.25 m within 5 iters in only {hit5}/{total}"),
        (hit10 >= 0.95 * total, f"below 0.25 m within 10 iters in only {hit10}/{total}"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"),
    ]
    report(5, "rapid convergence to targets", checks,
           f"hit5={hit5}/{total} hit10={hit10}/{total} {elapsed:.1f}s")


def test_criterion_6_multi_init_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="sweep", sweep_kind="inits", predictor="greybox", seed=2024,
        alpha1=0.1, n_iters=5, out_dir=str(tmp_path),
    )
    summary = run_experiment(cfg)
    rows = read_summary_rows(summary["artifacts"][0])
    by_init: dict = {}
    for r in rows:
        by_init.setdefault(r[1], []).append(float(r[7]))
    elapsed = time.perf_counter() - t0
    checks = [
        (np.mean(v) < 0.25, f"{k}: mean eps5 {np.mean(v):.3f} >= 0.25")
        for k, v in sorted(by_init.items())
    ]
    checks.append((len(by_init) == 6, f"expected 6 initial policies, got {len(by_init)}"))
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"))
    worst = max(float(np.mean(v)) for v in by_init.values())
    report(6, "multi-init convergence", checks, f"worst_mean_eps={worst:.3f} {elapsed:.1f}s")


def test_criterion_7_blackbox_training(tmp_path, surrogate, env_cfg):
    clean_rmse = math.sqrt(surrogate["final_val_mse"])
    noisy_out = str(tmp_path)
    run_experiment(
        ExperimentConfig(mode="gen-data", seed=7, out_dir=noisy_out, n_points=3000, labels="env")
    )
    t0 = time.perf_counter()
    summary = run_experiment(
        ExperimentConfig(mode="train-blackbox", seed=0, out_dir=noisy_out, epochs=500)
    )
    train_seconds = surrogate["train_seconds"] + (time.perf_counter() - t0)
    noisy_rmse = math.sqrt(summary["final_val_mse"])
    noise_scale = float(np.linalg.norm(env_cfg.landing_noise_std))
    checks = [
        (clean_rmse < 0.05, f"clean held-out RMSE {clean_rmse:.4f} >= 0.05"),
        (noisy_rmse < 1.2 * noise_scale,
         f"noisy held-out RMSE {noisy_rmse:.3f} >= 1.2 x {noise_scale:.3f}"),
        (train_seconds < 120.0, f"training runtime {train_seconds:.1f}s >= 120s"),
    ]
    report(7, "surrogate training quality", checks,
           f"clean_rmse={clean_rmse:.4f} noisy_rmse={noisy_rmse:.3f} {train_seconds:.1f}s")


def test_criterion_8_physics_oracle_equivalence(env_cfg, nominal_traj):
    t0 = time.perf_counter()
    lo, hi = sampling_bounds(SCENARIO_BOX)
    worst = 0.0
    for t1 in np.linspace(lo[0], hi[0], 5):
        for t4 in np.linspace(lo[1], hi[1], 5):
            phi = InterceptionPolicy(float(t1), float(t4))
            event = interception_event(nominal_traj, phi.theta1)
            xi_plus = racket_impact(
                event.xi_minus,
                racket_rotation(phi),
                racket_velocity(event),
                MODEL,
            )
            ref = fine_step_landing(xi_plus, MODEL.k_drag, Z_TABLE)
            pred = predict_landing(phi, nominal_traj, MODEL)
            worst = max(worst, float(np.linalg.norm(pred - ref)))
    elapsed = time.perf_counter() - t0
    checks = [
        (worst < 5e-3, f"worst gap {worst * 1e3:.2f} mm >= 5 mm"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"),
    ]
    report(8, "fine-step oracle equivalence", checks,
           f"worst_gap={worst * 1e3:.2f}mm {elapsed:.1f}s")


def test_criterion_9_seeded_determinism(tmp_path):
    commands = [
        ["run", "--seed", "5", "--iters", "5", "--alpha1", "0.1"],
        ["gen-data", "--seed", "9", "--n", "25", "--labels", "greybox"],
        ["grad-check", "--seed", "1", "--predictor", "blackbox", "--n", "10"],
    ]
    # the CLI runs in a child process, which must import the package the tests import
    src = os.path.dirname(os.path.dirname(ttreturn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    checks = []
    for ci, cmd in enumerate(commands):
        outputs = []
        for rep in ("a", "b"):
            out = tmp_path / f"c{ci}{rep}"
            proc = subprocess.run(
                [sys.executable, "-m", "ttreturn.cli", *cmd, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            checks.append((proc.returncode == 0, f"{cmd[0]}: exit {proc.returncode}"))
            files = sorted(p.name for p in out.iterdir())
            outputs.append({name: (out / name).read_bytes() for name in files})
        same = outputs[0] == outputs[1]
        checks.append((same, f"{cmd[0]}: repeated outputs differ"))
    report(9, "seeded byte-identical repeats", checks, f"{len(commands)} commands")
