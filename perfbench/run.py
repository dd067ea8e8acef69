"""Benchmark of ttreturn: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload greybox-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics when
untraced, the per-layer metrics when traced). The exit code is 0 only when
every check passed. Artifacts, the full result with provenance and the spans
of a traced run are written under `.perfbench_out/<workload>-seed<seed>/`.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import layers
from reference import SpeedSampler, at_reference_speed
from tracer import Tracer
from workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2  # per kind of pass, so that every pass has a seeded repeat


def fresh_import():
    """Import ttreturn from scratch (numpy stays loaded); returns its harness."""
    for name in [n for n in sys.modules if n == "ttreturn" or n.startswith("ttreturn.")]:
        del sys.modules[name]
    return importlib.import_module("ttreturn.harness")


def sha256s(paths) -> dict[str, str]:
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as f:
            out[os.path.relpath(path, OUT)] = hashlib.sha256(f.read()).hexdigest()
    return out


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ttreturn").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "seed": seed,
    }


class Bench:
    """One benchmark invocation: set-ups, timed passes, checks and result."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = OUT / f"{workload.name}-seed{seed}"
        self.setup_dir = str(self.out / "setup")
        self.pass_dir = str(self.out / "pass")
        # one tracer for the whole run keeps span ids unique across groups
        self.tracer = Tracer(layers.PACKAGE, layers.TARGETS, loop=layers.LOOP,
                             step=layers.STEP) if trace else None
        self.groups: dict[str, tuple[int, int]] = {}  # span index range per traced group
        self.checks: list[tuple[bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.setup_samples: list[float] = []
        self.passes: list[dict] = []
        self.hashes: dict[str, str] = {}
        self.artifacts: list[str] = []
        self.sampler = SpeedSampler()

    def _traced(self, group: str, fn, *args):
        start = len(self.tracer.spans)
        with self.tracer:
            result = fn(*args)
        self.groups[group] = (start, len(self.tracer.spans))
        return result

    def _group(self, group: str) -> list:
        start, end = self.groups[group]
        return self.tracer.spans[start:end]

    def _repeat(self, what: str, reference: dict | None, artifacts: list[str]) -> dict:
        """Hashes of a seeded repeat's artifacts; a mismatch fails the repeat."""
        hashes = sha256s(artifacts)
        if reference is None:
            self.hashes.update(hashes)
        elif hashes != reference:
            self.failed += 1
            self.checks.append((False, f"{what}: artifacts differ from the first seeded repeat"))
        return hashes

    def setup(self):
        """Import, config, nominal trajectory and workload build, repeated.

        Untraced repeats run under the speed sampler and are timed without
        the sampling. When tracing, the last repeat runs under the tracer
        after the import and is not timed. Returns the harness module and
        configs of the last repeat.
        """
        reference = None
        for rep in range(self.workload.setup_repeats):
            self.attempted += 1
            traced = self.tracer and rep == self.workload.setup_repeats - 1
            with contextlib.nullcontext() if traced else self.sampler:
                t0 = self.sampler.clock()
                h = fresh_import()
                cfgs = self.workload.configs(h, self.seed, self.setup_dir, self.pass_dir)

                def build():
                    for cfg in cfgs.values():
                        cfg.validate()
                    h.nominal_trajectory(next(iter(cfgs.values())).env_config())
                    return self.workload.build(h, cfgs)

                if traced:
                    artifacts = self._traced("setup", build)
                else:
                    artifacts = build()
                    self.setup_times.append(self.sampler.clock() - t0)
            if not traced:
                self.setup_samples += self.sampler.samples
            if reference is None:
                self.checks += self.workload.setup_checks(cfgs, artifacts)
            reference = self._repeat(f"set-up {rep}", reference, artifacts)
        return h, cfgs

    def measure(self, h, cfgs) -> None:
        """Repeat the pass until the time is used; when tracing, alternate
        untraced and traced passes. Untraced passes run under the speed
        sampler; their times exclude the sampling."""
        reference = None
        kinds = (False, True) if self.tracer else (False,)
        deadline = time.perf_counter() + self.seconds
        while True:
            index = len(self.passes)
            traced = bool(self.tracer) and index % 2 == 1
            self.attempted += 1
            if traced:
                phases, artifacts = self._traced(
                    f"pass{index}", self.workload.run_pass, h, cfgs, time.perf_counter)
            else:
                with self.sampler:
                    phases, artifacts = self.workload.run_pass(h, cfgs, self.sampler.clock)
            record = {"traced": traced, "phases": phases, "wall_s": sum(phases.values())}
            if traced:
                record["layers"] = layers.layer_metrics(
                    self._group("setup") + self._group(f"pass{index}"))
            else:
                record["kernel_s"] = statistics.mean(self.sampler.samples)
                record["wall_ref_s"] = at_reference_speed(record["wall_s"], self.sampler.samples)
            if reference is None:
                self.artifacts = artifacts
            reference = self._repeat(f"pass {index}", reference, artifacts)
            self.passes.append(record)

            done = min(sum(p["traced"] == k for p in self.passes) for k in kinds)
            typical = statistics.median(p["wall_s"] for p in self.passes)
            if done >= MIN_PASSES and time.perf_counter() + typical > deadline:
                break

    def _median(self, traced: bool, key) -> float:
        return statistics.median(key(p) for p in self.passes if p["traced"] == traced)

    def results(self, h, cfgs) -> tuple[dict, dict]:
        """End-to-end and workload metrics (untraced passes) and, when
        tracing, per-layer metrics; each as {name: (value, unit)}."""
        phases = {k: self._median(False, lambda p: p["phases"][k]) for k in self.passes[0]["phases"]}
        quality, checks = self.workload.evaluate(h, cfgs, self.artifacts, phases)
        self.checks += checks
        if not all(ok for ok, _ in checks):
            self.failed = self.attempted  # every pass wrote these same artifacts
        wall = self._median(False, lambda p: p["wall_s"])
        setup_raw = statistics.median(self.setup_times)
        e2e = {
            "setup_s": (at_reference_speed(setup_raw, self.setup_samples), "s"),
            "wall_s": (self._median(False, lambda p: p["wall_ref_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_raw_s": (setup_raw, "s"),
            "wall_raw_s": (wall, "s"),
            **quality,
        }
        if not self.tracer:
            return e2e, {}
        traced = [p["layers"] for p in self.passes if p["traced"]]
        for name in layers.COUNTS:
            same = all(t[name] == traced[0][name] for t in traced)
            self.checks.append((same, f"{name}: count differs between traced repeats"))
            if not same:
                self.failed += 1
        per_layer = layers.combine(traced)
        per_layer["trace.overhead_frac"] = self._median(True, lambda p: p["wall_s"]) / wall - 1.0
        return e2e, {name: (int(per_layer[name]) if unit == "count" else per_layer[name], unit)
                     for name, unit, _ in layers.PER_LAYER}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as f:
            json.dump({group: [asdict(s) for s in self._group(group)] for group in self.groups}, f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "ttreturn" / "__init__.py").is_file():
        print(f"error: no ttreturn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.out, ignore_errors=True)
    bench.out.mkdir(parents=True)
    error = None
    try:
        h, cfgs = bench.setup()
        bench.measure(h, cfgs)
        e2e, per_layer = bench.results(h, cfgs)
    except Exception as exc:  # a failed run still reports what it attempted
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        bench.failed += 1
        bench.checks.append((False, error))
        e2e, per_layer = {}, {}

    correct = error is None and bench.failed == 0 and all(ok for ok, _ in bench.checks)
    prov = provenance(args.seed)
    reported = per_layer if args.trace else e2e
    names = [m[0] for m in (layers.PER_LAYER if args.trace else END_TO_END)]
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": reported[n][0], "unit": reported[n][1]}
                    for n in names if n in reported},
    }
    full = {
        "workload": args.workload,
        "why": bench.workload.why,
        "trace": args.trace,
        "provenance": prov,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "passes": bench.passes,
        "setup_s_each": bench.setup_times,
        "artifacts_sha256": bench.hashes,
        "failed_checks": [msg for ok, msg in bench.checks if not ok],
        "result": result,
    }
    with open(bench.out / "result.json", "w") as f:
        json.dump(full, f, indent=1)
    if bench.groups:
        bench.write_spans(bench.out / "spans.json")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} attempted, {bench.failed} failed")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in {**e2e, **per_layer}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for msg in full["failed_checks"]:
        print(f"FAILED CHECK: {msg}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
