"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import itertools
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from reference import SpeedSampler  # noqa: E402
from workloads import END_TO_END, WORKLOADS, provenance_checks  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_times_of_synthetic_tree_add_up_to_root():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "b", 5.0, 9.0, 0, None),
        Span(3, "c", 6.0, 7.0, 2, None),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert sum(own.values()) == spans[0].duration


def test_self_times_of_traced_calls_add_up_to_root():
    tracer = Tracer("none", (), clock=fake_clock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    root = tracer.wrap("root", lambda: (mid(), leaf(), mid()))
    root()
    own = self_times(tracer.spans)
    assert [s.name for s in tracer.spans if s.parent is None] == ["root"]
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)
    assert all(v > 0 for v in own.values())


def test_spans_of_one_iteration_share_an_id():
    tracer = Tracer("none", (), loop="loop", step="step", clock=fake_clock())
    work = tracer.wrap("work", lambda: None)
    step = tracer.wrap("step", lambda: None)
    loop = tracer.wrap("loop", lambda n: [(work(), work(), step()) for _ in range(n)])
    work()
    loop(3)
    ids = [(s.name, s.iteration) for s in tracer.spans]
    assert ids == [
        ("work", None), ("loop", None),
        ("work", 0), ("work", 0), ("step", 0),
        ("work", 1), ("work", 1), ("step", 1),
        ("work", 2), ("work", 2), ("step", 2),
    ]


def _namespace_snapshot() -> dict:
    import ttreturn.harness  # noqa: F401  (loads every module of the package)

    snap = {}
    for name, module in sys.modules.items():
        if name == "ttreturn" or name.startswith("ttreturn."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


@pytest.mark.parametrize("raise_inside", [False, True])
def test_tracer_restores_every_patched_attribute(raise_inside):
    before = _namespace_snapshot()
    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    with pytest.raises(RuntimeError) if raise_inside else contextlib.nullcontext():
        with tracer:
            during = _namespace_snapshot()
            changed = {k for k in before if during[k] is not before[k]}
            # each function is patched in every namespace that bound it
            assert ("ttreturn.env", "propagate_to_landing") in changed
            assert ("ttreturn.greybox", "propagate_to_landing") in changed
            assert ("ttreturn.harness", "intercept") in changed
            assert ("ttreturn", "launch") in changed
            assert ("ttreturn.blackbox", "Dataset", "load_csv") in changed
            if raise_inside:
                raise RuntimeError("inside")
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_short_run_counts(tmp_path):
    from ttreturn import harness

    cfg = harness.ExperimentConfig(mode="run", seed=3, n_iters=5, out_dir=str(tmp_path))
    with Tracer(layers.PACKAGE, layers.TARGETS, loop=layers.LOOP, step=layers.STEP) as tr:
        harness.run_experiment(cfg)
    got = layers.layer_metrics(tr.spans)
    assert got["optimizer.run_online.calls"] == 1
    assert got["optimizer.gd_update.calls"] == 5
    assert got["metrics.MetricsState.update.calls"] == 5
    assert got["optimizer.iter_ms.samples"] == 5
    assert got["env.intercept.calls"] == got["env.launch.calls"] == 5 + got["env.miss.no_crossing"] \
        + got["env.miss.out_of_reach"]
    assert got["ballistics.propagate_to_landing.steps"] > 0
    assert {s.iteration for s in tr.spans if s.name == "env.launch"} == set(range(5))
    assert set(got) | {"trace.overhead_frac"} == {n for n, _, _ in layers.PER_LAYER}


def test_benchmark_file_matches_the_code_and_names_are_valid():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(END_TO_END)
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])


def test_provenance_checks_flag_a_wrong_seed_or_config(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text("# seed=3\n# config=abc\niter,eps\n1,0.5\n")
    assert [ok for ok, _ in provenance_checks(str(path), 3, "abc")] == [True, True]
    assert [ok for ok, _ in provenance_checks(str(path), 4, "abd")] == [False, False]


def test_speed_sampler_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(period_s=0.005)
    with sampler:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
        busy = sampler.clock() - c0
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert busy < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
