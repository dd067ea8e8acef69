"""Which ttreturn calls the traced run times, and the per-layer metrics built from them.

Per-Euler-step functions (`free_flight_step`, `free_flight_step_jacobians`)
are never wrapped: a wrapper there would cost more than the step. Step and
sample counts come from the results of the per-flight calls instead.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import Span, Target, self_times

PACKAGE = "ttreturn"
LOOP = "optimizer.run_online"
STEP = "optimizer.gd_update"


def _clipped(args, result) -> int:
    phi = args[0]
    return int((phi.theta1, phi.theta4) != (result.theta1, result.theta4))


TARGETS = (
    Target("ballistics.propagate_to_landing", "ttreturn.ballistics", "propagate_to_landing",
           lambda args, rec: rec.k_max),
    Target("ballistics.landing_state_jacobian", "ttreturn.ballistics", "landing_state_jacobian"),
    Target("env.launch", "ttreturn.env", "launch", lambda args, traj: len(traj)),
    Target("env.intercept", "ttreturn.env", "intercept"),
    Target("arm.interception_event", "ttreturn.arm", "interception_event"),
    Target("impact.racket_impact", "ttreturn.impact", "racket_impact"),
    Target("impact.impact_state_jacobian", "ttreturn.impact", "impact_state_jacobian"),
    Target("greybox.predict_landing_with_gradient", "ttreturn.greybox",
           "predict_landing_with_gradient"),
    Target("greybox.predict_landing", "ttreturn.greybox", "predict_landing"),
    Target("blackbox.train", "ttreturn.blackbox", "train"),
    Target("blackbox.mlp_jacobian", "ttreturn.blackbox", "mlp_jacobian"),
    Target("blackbox.Dataset.save_csv", "ttreturn.blackbox", "Dataset.save_csv"),
    Target("blackbox.Dataset.load_csv", "ttreturn.blackbox", "Dataset.load_csv"),
    Target("optimizer.run_online", "ttreturn.optimizer", "run_online"),
    Target("optimizer.gd_update", "ttreturn.optimizer", "gd_update"),
    Target("optimizer.project", "ttreturn.optimizer", "project", _clipped),
    Target("optimizer.RunLog.to_csv", "ttreturn.optimizer", "RunLog.to_csv"),
    Target("metrics.MetricsState.update", "ttreturn.metrics", "MetricsState.update"),
    Target("harness.nominal_trajectory", "ttreturn.harness", "nominal_trajectory"),
    Target("harness.gen_dataset_greybox", "ttreturn.harness", "gen_dataset_greybox"),
    Target("harness.run_experiment", "ttreturn.harness", "run_experiment"),
)

# spans reported with both a call count and a self time
COUNTED = (
    "ballistics.propagate_to_landing",
    "ballistics.landing_state_jacobian",
    "env.launch",
    "env.intercept",
    "arm.interception_event",
    "impact.racket_impact",
    "impact.impact_state_jacobian",
    "greybox.predict_landing_with_gradient",
    "greybox.predict_landing",
    "harness.nominal_trajectory",
    "blackbox.train",
    "blackbox.mlp_jacobian",
    "optimizer.run_online",
    "optimizer.gd_update",
    "optimizer.RunLog.to_csv",
    "metrics.MetricsState.update",
    "harness.gen_dataset_greybox",
)
SELF_ONLY = (
    "blackbox.Dataset.save_csv",
    "blackbox.Dataset.load_csv",
    "harness.run_experiment",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    *((f"{n}.calls", "count", "lower") for n in COUNTED),
    *((f"{n}.self_s", "s", "lower") for n in COUNTED + SELF_ONLY),
    ("ballistics.propagate_to_landing.steps", "count", "lower"),
    ("ballistics.us_per_step", "us", "lower"),
    ("env.launch.samples", "count", "lower"),
    ("env.miss.no_crossing", "count", "lower"),
    ("env.miss.out_of_reach", "count", "lower"),
    ("optimizer.project.clipped_frac", "ratio", "lower"),
    ("optimizer.iter_ms_p50", "ms", "lower"),
    ("optimizer.iter_ms_p99", "ms", "lower"),
    ("optimizer.iter_ms.samples", "count", "higher"),
    ("metrics.update_us.first_decile", "us", "lower"),
    ("metrics.update_us.last_decile", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# metrics that count work: a seeded repeat must reproduce them exactly
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _iteration_ms(spans: list[Span]) -> list[float]:
    """Duration of each optimizer iteration: from the loop start or the end
    of the previous step to the end of this step."""
    out = []
    mark = None
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == LOOP:
            mark = span.start
        elif span.name == STEP and mark is not None:
            out.append((span.end - mark) * 1e3)
            mark = span.end
    return out


def _update_deciles(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Metrics-update durations [us] in the first and last tenth of each run."""
    runs: dict[int, list[Span]] = {}
    loops = {s.id for s in spans if s.name == LOOP}
    for span in spans:
        if span.name == "metrics.MetricsState.update" and span.parent is not None:
            runs.setdefault(span.parent, []).append(span)
    first, last = [], []
    for run_id, updates in runs.items():
        if run_id not in loops:
            continue
        updates.sort(key=lambda s: s.start)
        tenth = math.ceil(len(updates) / 10)
        first += [s.duration * 1e6 for s in updates[:tenth]]
        last += [s.duration * 1e6 for s in updates[-tenth:]]
    return first, last


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one group of spans (overhead_frac excluded)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
        if span.work is not None:
            work[span.name] = work.get(span.name, 0) + span.work
    misses = {"NoCrossing": 0, "OutOfReach": 0}
    for span in spans:
        if span.name == "env.intercept" and span.error in misses:
            misses[span.error] += 1

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTED + SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    steps = work.get("ballistics.propagate_to_landing", 0)
    out["ballistics.propagate_to_landing.steps"] = steps
    out["ballistics.us_per_step"] = (
        self_s.get("ballistics.propagate_to_landing", 0.0) / steps * 1e6 if steps else 0.0
    )
    out["env.launch.samples"] = work.get("env.launch", 0)
    out["env.miss.no_crossing"] = misses["NoCrossing"]
    out["env.miss.out_of_reach"] = misses["OutOfReach"]
    n_project = calls.get("optimizer.project", 0)
    out["optimizer.project.clipped_frac"] = (
        work.get("optimizer.project", 0) / n_project if n_project else 0.0
    )
    iters = _iteration_ms(spans)
    out["optimizer.iter_ms_p50"] = float(np.percentile(iters, 50)) if iters else 0.0
    out["optimizer.iter_ms_p99"] = float(np.percentile(iters, 99)) if iters else 0.0
    out["optimizer.iter_ms.samples"] = len(iters)
    first, last = _update_deciles(spans)
    out["metrics.update_us.first_decile"] = statistics.median(first) if first else 0.0
    out["metrics.update_us.last_decile"] = statistics.median(last) if last else 0.0
    return out


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; counts are identical across seeded repeats."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
