"""Command-line interface: exit codes, JSON summaries, reproducibility."""

import argparse
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

import ttreturn.ballistics
import ttreturn.env
import ttreturn.harness
from conftest import read_run_csv
from ttreturn.blackbox import random_model
from ttreturn.cli import build_parser, config_from_args, main
from ttreturn.env import EnvConfig
from ttreturn.errors import ConfigError, MaxStepsExceeded, NegativeDiscriminant, NoCrossing, SingularGradient
from ttreturn.harness import RUN_START, SCENARIO_BOX, SWEEP_START, ExperimentConfig


@pytest.mark.parametrize("args", [["run", "--iters", "abc"], ["run", "--target", "1,x"],
                                  ["run", "--target", "1,2,3"], []],
                         ids=["iters-abc", "target-not-a-number", "target-three-numbers", "no-subcommand"])
def test_usage_error_exits_one(capsys, args):
    # argparse's own code 2 would read as an aborted run
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ttreturn") and "error:" in err


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"]], ids=["top-level", "subcommand"])
def test_help_exits_zero(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("usage: ttreturn")


def test_bad_parameter_exits_one(tmp_path, capsys):
    code = main(["run", "--alpha1", "-0.1", "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_field_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "run", "learning": 0.1}\n')
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "learning" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"seed": "3"}', "seed: expected an integer"),
        ('{"n_iters": 2.5}', "n_iters: expected an integer"),
        ("[1, 2]", "expected a JSON object"),
    ],
)
def test_wrong_config_type_exits_one(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc + "\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_missing_model_exits_one(tmp_path, capsys):
    code = main(
        [
            "run", "--predictor", "blackbox", "--iters", "1",
            "--model", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "model" in capsys.readouterr().err



@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"meta": {}}', "layers: expected a list of 5 layers"),
        ("[1, 2]", "expected a JSON object"),
        ('{"layers": [{"weight": [[1, 2]], "bias": [0]}], "meta": {}}', "layers: expected a list of 5 layers"),
        ('{"layers": [', "invalid JSON at line 2: Expecting value"),
        ('{"layers": [{"weight": "w", "bias": [0, 0, 0, 0]}, {}, {}, {}, {}]}',
         "layers[0].weight: expected 4 x 2 finite numbers"),
    ],
    ids=["no-layers", "top-level-list", "wrong-architecture", "invalid-json", "non-numeric-weight"],
)
def test_malformed_model_exits_one(tmp_path, capsys, doc, message):
    model = tmp_path / "bad.json"
    model.write_text(doc + "\n")
    code = main(["run", "--predictor", "blackbox", "--iters", "1", "--model", str(model),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{model}: {message}" in err
    assert "Traceback" not in err


def test_model_with_wrong_layer_shape_exits_one(tmp_path, capsys):
    # a saved model whose second layer's weight lost a row
    main(["gen-data", "--labels", "greybox", "--n", "30", "--out", str(tmp_path)])
    main(["train-blackbox", "--epochs", "1", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["layers"][1]["weight"].pop()
    (tmp_path / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["run", "--predictor", "blackbox", "--iters", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "layers[1].weight: expected 4 x 4 finite numbers" in capsys.readouterr().err


def test_short_dataset_row_exits_one(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("theta1,theta4,land_x,land_y\n0.3,0.1,-1.2\n0.4,0.2,-1.1,0.6\n")
    code = main(["train-blackbox", "--dataset", str(data), "--epochs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{data}: line 2: expected 4 numbers, got 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args,code",
    [
        (["run", "--config", "{tmp}/missing.json"], errno.ENOENT),
        (["train-blackbox", "--dataset", "{tmp}", "--epochs", "1"], errno.EISDIR),
        (["run", "--predictor", "blackbox", "--iters", "1", "--model", "{tmp}"], errno.EISDIR),
    ],
    ids=["missing-config", "dataset-directory", "model-directory"],
)
def test_unreadable_input_file_exits_one(tmp_path, capsys, args, code):
    argv = [a.format(tmp=tmp_path) for a in args] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {code}] ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["gen-data", "--n", "10", "--sampling", "grid"], "n_points: grid sampling needs a square count"),
        (["gen-data", "--n", "5", "--config", "{tmp}/narrow.json"], "box: too small for the sampling margin"),
        (["run", "--predictor", "blackbox", "--iters", "1", "--model", "{tmp}/missing.json"],
         "model_path: no trained model"),
        (["train-blackbox", "--dataset", "{tmp}/missing.csv"], "dataset_path: no dataset"),
    ],
    ids=["grid-not-square", "box-too-narrow", "missing-model", "missing-dataset"],
)
def test_fault_leaves_no_output_directory(tmp_path, capsys, args, message):
    # each artifact makes its own directory, so a run that fails before its first one leaves none
    (tmp_path / "narrow.json").write_text('{"box_theta1": [0.3, 0.38]}\n')
    out = tmp_path / "o"
    assert main([a.format(tmp=tmp_path) for a in args] + ["--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_path_into_a_new_directory(tmp_path, capsys):
    path = tmp_path / "new" / "dir" / "d.csv"
    assert main(["gen-data", "--n", "5", "--labels", "greybox", "--dataset", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    assert json.loads(capsys.readouterr().out)["artifacts"] == [str(path)]
    assert path.is_file() and not (tmp_path / "o").exists()


def test_small_run_prints_json_summary(tmp_path, capsys):
    code = main(
        [
            "run", "--seed", "3", "--iters", "3", "--alpha1", "0.1",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "final_eps" in summary and "artifacts" in summary


def test_unreachable_box_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "run",
                "seed": 0,
                "n_iters": 1,
                "phi1": [-0.5, 0.0],
                "box_theta1": [-0.5001, -0.4999],
                "box_theta4": [-0.0001, 0.0001],
            }
        )
        + "\n"
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "aborted:" in capsys.readouterr().err


def test_abort_writes_partial_run_log(tmp_path, capsys, monkeypatch):
    # every ball after the third is missed: the run aborts on the 21st miss
    # in a row and its CSV keeps the three finished iterations
    intercept = ttreturn.harness.intercept
    calls = []

    def failing_intercept(phi, cfg, rng):
        calls.append(phi)
        if len(calls) > 3:
            raise NoCrossing("injected")
        return intercept(phi, cfg, rng)

    monkeypatch.setattr(ttreturn.harness, "intercept", failing_intercept)
    out = tmp_path / "o"
    code = main(["run", "--seed", "1", "--iters", "10", "--out", str(out)])
    assert code == 2
    assert "21 consecutive missed balls at iteration 4" in capsys.readouterr().err
    log, _ = read_run_csv(out / "run_greybox_seed1.csv")
    assert [rec.i for rec in log.records] == [1, 2, 3]
    assert log.n_failures == 21
    assert "# failures=21\n" in (out / "run_greybox_seed1.csv").read_text()


def test_env_label_flight_error_exits_after_the_first_failing_hit(tmp_path, capsys, monkeypatch):
    # every return is cut off at 300 steps: the first hit's flight raises at once, so
    # gen-data --labels env exits 3 after the launches up to that hit, not after n of them
    launch, event = ttreturn.env.launch, ttreturn.env.interception_event
    calls = {"launches": 0, "hits": 0}

    def counted_launch(*args, **kwargs):
        calls["launches"] += 1
        return launch(*args, **kwargs)

    def counted_event(*args, **kwargs):
        result = event(*args, **kwargs)
        calls["hits"] += 1
        return result

    monkeypatch.setattr(ttreturn.ballistics, "MAX_STEPS", 300)
    monkeypatch.setattr(ttreturn.env, "launch", counted_launch)
    monkeypatch.setattr(ttreturn.env, "interception_event", counted_event)
    code = main(["gen-data", "--labels", "env", "--n", "50", "--seed", "3", "--out", str(tmp_path / "o")])
    assert (code, capsys.readouterr().err) == (3, "error: MaxStepsExceeded: no landing within 300 steps\n")
    assert calls["hits"] == 1 and 1 <= calls["launches"] < 50


def test_failing_variance_policy_keeps_earlier_rows(tmp_path, capsys):
    # the second policy misses every ball: exit 1, and the first policy's row stays in the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variance_policies": [[0.45, 0.25], [-1.5, 0.1]], "n_trials": 20}))
    out = tmp_path / "o"
    assert main(["baseline-variance", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: 20 of 20 trials missed the ball\n"
    assert (out / "baseline_variance.csv").read_text().splitlines()[2:] == [
        "theta1,theta4,n_trials,mean_x,mean_y,sigma",
        "0.45,0.25,20,-1.41807377,1.31035849,0.257433533",
    ]


def run_child(tmp_path, doc: dict, args: list) -> subprocess.CompletedProcess:
    """The CLI with the config `doc` in a child process, since pytest captures warnings in its own."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(ttreturn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "ttreturn.cli", *args, "--config", str(cfg), "--out",
                           str(tmp_path / "o")], capture_output=True, text=True, env=env)


def non_finite_cells(out_dir: pathlib.Path) -> list[str]:
    """Every cell of a CSV under out_dir that is a non-finite number (as `.9g` spells it), with its file."""
    return [f"{path.name}: {c}" for path in sorted(out_dir.glob("**/*.csv"))
            for line in path.read_text().splitlines() if not line.startswith("#")
            for c in line.split(",") if c.lstrip("-") in ("inf", "nan")]


@pytest.mark.parametrize("args,code,err", [
    (["run", "--iters", "1"], 2, "aborted: 21 consecutive missed balls at iteration 1\n"),
    (["baseline-variance", "--trials", "20"], 1, "error: 20 of 20 trials missed the ball\n"),
    (["gen-data", "--labels", "greybox", "--n", "36"], 1, "error: 50 of 50 sampled policies missed the ball\n"),
], ids=["run", "baseline-variance", "gen-data-greybox"])
def test_overflowed_launch_misses_without_a_numpy_warning(tmp_path, args, code, err):
    # an overflowed launch reaches the arm as inf and NaN samples: every ball is missed and stderr
    # holds the one error line
    proc = run_child(tmp_path, {"nominal_state": [-0.15, 3.9, 1.1, 1e160, 0, 3.3]}, args)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("args,message", [
    (["baseline-variance", "--trials", "20"], "landing 1: the running mean or scatter is not finite"),
    (["gen-data", "--labels", "env", "--n", "5"], "noisy landing is not finite: ("),
    (["run", "--iters", "5"], "iteration 1: r_landing is not finite or its loss overflows: ("),
], ids=["baseline-variance", "gen-data-env", "run"])
def test_huge_landing_noise_exits_three_without_a_numpy_warning(tmp_path, args, message):
    # a noisy landing that overflows, or whose square does, stops every mode with its one error
    # line on stderr, and no CSV it leaves holds a non-finite number
    proc = run_child(tmp_path, {"landing_noise_std": [1e308, 1e308]}, args)
    assert (proc.returncode, proc.stderr.count("\n")) == (3, 1), proc.stderr
    assert proc.stderr.startswith(f"error: NonFiniteStep: {message}") and "RuntimeWarning" not in proc.stderr
    assert non_finite_cells(tmp_path / "o") == []


def test_non_finite_gradient_exits_three(tmp_path, capsys, monkeypatch):
    def nan_gradient(phi, event, physics, coupled):
        return np.zeros(2), np.array([[np.nan, 0.0], [0.0, 1.0]])

    monkeypatch.setattr(ttreturn.harness, "predict_landing_with_gradient", nan_gradient)
    code = main(["run", "--seed", "1", "--iters", "3", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "error: NonFiniteStep: iteration 1: jac is not finite" in capsys.readouterr().err


def test_seeded_repeats_are_byte_identical(tmp_path, capsys):
    args = ["run", "--seed", "11", "--iters", "4", "--alpha1", "0.1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    out_a = json.loads(capsys.readouterr().out)
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    out_b = json.loads(capsys.readouterr().out)
    assert out_a["final_eps"] == out_b["final_eps"]
    (pa,) = out_a["artifacts"]
    (pb,) = out_b["artifacts"]
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_grad_check_subcommand(tmp_path, capsys):
    code = main(
        ["grad-check", "--predictor", "blackbox", "--n", "5", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_rel_error"] < 1e-6


def test_degenerate_dataset_exits_three(tmp_path, capsys):
    data = tmp_path / "constant.csv"
    data.write_text("theta1,theta4,land_x,land_y\n" + "0.45,0.2,-1.1,0.9\n" * 20)
    code = main(
        ["train-blackbox", "--dataset", str(data), "--epochs", "1", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "DegenerateDataset" in capsys.readouterr().err


def test_non_finite_dataset_exits_three(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text(
        "theta1,theta4,land_x,land_y\n0.3,0.1,-1.2,0.8\n0.4,0.2,nan,0.6\n0.5,0.3,-1.0,1.0\n"
    )
    out = tmp_path / "o"
    code = main(["train-blackbox", "--dataset", str(data), "--epochs", "1", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "DegenerateDataset" in err and "record 2 " in err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize(
    "error", [NegativeDiscriminant, SingularGradient, MaxStepsExceeded], ids=lambda e: e.__name__
)
def test_flight_error_in_gradient_exits_three(tmp_path, capsys, monkeypatch, error):
    def failing_gradient(phi, event, physics, coupled):
        raise error("injected")

    monkeypatch.setattr(ttreturn.harness, "predict_landing_with_gradient", failing_gradient)
    code = main(["run", "--seed", "1", "--iters", "2", "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"error: {error.__name__}: injected" in capsys.readouterr().err


@pytest.mark.parametrize("coupled,code", [(False, 0), (True, 3)], ids=["frozen", "coupled"])
def test_crossing_pair_with_equal_azimuths_has_no_coupled_gradient(tmp_path, capsys, coupled, code):
    # the launch runs along the phi1 ray through the base: the crossing pair's two
    # azimuths differ by less than half an ulp of pi, so the pair has no event tangent;
    # the frozen run goes on, and the coupled one stops with a typed error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nominal_state": [-1.4997491471980289, 0.5722922766339329, 1.1, 10.110324594200835, -3.85801898293011,
                          -0.682025675489454],
        "jitter_std": [0.0] * 6, "box_theta1": [-2.5, 0.5], "phi1": [-1.9353337228680267, 0.0],
        "couple_geometry": coupled,
    }))
    assert main(["run", "--config", str(cfg), "--iters", "1", "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: SingularGradient: ") if coupled else err == ""


def test_non_finite_alpha1_exits_one(tmp_path, capsys):
    code = main(["run", "--alpha1", "nan", "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "alpha1: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [("jitter_std", [-0.005, 0.005, 0.005, 0.015, 0.025, 0.015]),
                                        ("landing_noise_std", [-0.1, 0.2])])
def test_negative_noise_override_exits_one(tmp_path, capsys, name, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    code = main(["run", "--config", str(cfg), "--iters", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{name}: must be >= 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args",
    [["gen-data", "--n", "5"], ["grad-check", "--n", "2"], ["baseline-variance", "--trials", "2"],
     ["sweep", "--kind", "inits", "--iters", "1"]],
    ids=["gen-data", "grad-check", "baseline-variance", "sweep-inits"],
)
def test_phi1_outside_the_box_only_stops_modes_that_start_there(tmp_path, capsys, args):
    # RUN_START's theta1 (0.66) lies outside this box; only a run or a targets sweep starts at phi1
    cfg = tmp_path / "box.json"
    cfg.write_text('{"box_theta1": [0.26, 0.6]}\n')
    assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["run", "--iters", "1", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "error: phi1: outside the feasible box" in capsys.readouterr().err


def test_sweep_starts_at_sweep_start_unless_phi1_is_set(tmp_path, capsys):
    base = {"n_seeds": 1, "n_iters": 1, "sweep_targets": [[-1.2, 0.6]]}
    # the subcommand, not a file's "mode", picks the default start; an empty phi1 is that start
    cases = [(base, [], SWEEP_START), ({**base, "mode": "run"}, [], SWEEP_START),
             ({**base, "phi1": []}, [], SWEEP_START), ({**base, "phi1": [0.5, 0.2]}, [], (0.5, 0.2)),
             ({**base, "phi1": [0.5, 0.2]}, ["--phi1", "0.55,0.25"], (0.55, 0.25))]
    for n, (doc, flags, start) in enumerate(cases):
        path = tmp_path / f"f{n}.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / f"o{n}"), *flags]) == 0
        summary = json.loads(capsys.readouterr().out)
        row = open(summary["artifacts"][0]).read().splitlines()[-1].split(",")
        assert (float(row[3]), float(row[4])) == start
    assert config_from_args(build_parser().parse_args(["sweep"])).start() == SWEEP_START
    # a run keeps its own default start, with or without a config file
    assert config_from_args(build_parser().parse_args(["run", "--config", str(path)])).start() == (0.5, 0.2)
    path.write_text(json.dumps(base))
    assert config_from_args(build_parser().parse_args(["run", "--config", str(path)])).start() == RUN_START
    path.write_text(json.dumps({**base, "mode": "sweep", "phi1": []}))
    assert config_from_args(build_parser().parse_args(["run", "--config", str(path)])).start() == RUN_START


# each subcommand's (option string, dest, choices, metavar), as the hand-written parser had them
COMMON_FLAGS = {
    ("--config", "config", None, None), ("--seed", "seed", None, None), ("--out", "out_dir", None, None),
    ("--predictor", "predictor", ("greybox", "blackbox"), None), ("--alpha1", "alpha1", None, None),
    ("--iters", "n_iters", None, None), ("--target", "target", None, "X,Y"), ("--model", "model_path", None, None),
}
MODE_FLAGS = {
    "grad-check": {("--n", "n_points", None, None)},
    "baseline-variance": {("--trials", "n_trials", None, None)},
    "gen-data": {("--n", "n_points", None, None), ("--sampling", "sampling", ("uniform", "grid"), None),
                 ("--labels", "labels", ("env", "greybox"), None), ("--dataset", "dataset_path", None, None)},
    "train-blackbox": {("--dataset", "dataset_path", None, None), ("--epochs", "epochs", None, None)},
    "run": {("--phi1", "phi1", None, "T1,T4")},
    "sweep": {("--kind", "sweep_kind", ("targets", "inits"), None), ("--phi1", "phi1", None, "T1,T4")},
}


def subcommand_flags() -> dict:
    """{subcommand: its actions but --help}, in the parser's order."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {mode: [a for a in p._actions if a.option_strings != ["-h", "--help"]] for mode, p in sub.choices.items()}


def test_each_subcommand_keeps_its_flags():
    got = {mode: {(s, a.dest, a.choices, a.metavar) for a in actions for s in a.option_strings}
           for mode, actions in subcommand_flags().items()}
    assert list(got) == list(MODE_FLAGS)
    assert got == {mode: COMMON_FLAGS | own for mode, own in MODE_FLAGS.items()}


@pytest.mark.parametrize("mode", list(MODE_FLAGS))
def test_flag_and_config_file_give_the_same_config(tmp_path, mode):
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    values = {"int": ("3", 3), "float": ("0.25", 0.25), "tuple[float, float]": ("0.4,0.2", [0.4, 0.2]),
              "str": ("x.csv", "x.csv")}
    parse = lambda argv: config_from_args(build_parser().parse_args([mode, *argv]))
    path = tmp_path / "cfg.json"
    flags = [a for a in subcommand_flags()[mode] if a.dest != "config"]
    for action in flags:
        text, value = (action.choices[-1],) * 2 if action.choices else values[types[action.dest]]
        path.write_text(json.dumps({action.dest: value}))
        from_flag, from_file = parse([action.option_strings[0], text]), parse(["--config", str(path)])
        assert from_flag == from_file != parse([]), action.dest
    assert len(flags) == len(MODE_FLAGS[mode]) + 7


def strict_json(text: str):
    """Parse a summary as RFC 8259 JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_grad_check_without_clean_entry_prints_null(tmp_path, capsys):
    # seed 27's only grey-box policy is flagged, so its error statistics are NaN
    assert main(["grad-check", "--seed", "27", "--n", "1", "--out", str(tmp_path / "o")]) == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["median_rel_error"] is None and summary["max_rel_error"] is None
    assert summary["n_flagged"] == 1


def test_train_without_validation_records_prints_null(tmp_path, capsys):
    data = tmp_path / "five.csv"
    rows = ["0.3,0.1,-1.2,0.8", "0.4,0.2,-1.1,0.6", "0.5,0.3,-1.0,1.0", "0.6,0.1,-0.9,0.7", "0.35,0.25,-1.3,0.9"]
    data.write_text("theta1,theta4,land_x,land_y\n" + "\n".join(rows) + "\n")
    code = main(["train-blackbox", "--dataset", str(data), "--epochs", "1", "--out", str(tmp_path / "o")])
    assert code == 0
    assert strict_json(capsys.readouterr().out)["final_val_mse"] is None


@pytest.fixture(scope="module")
def random_model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    random_model(np.random.default_rng(8), SCENARIO_BOX, lambda fan_in: 1.0).save(path, {})
    return path


MODE_ARGS = (("run",), ("grad-check",), ("baseline-variance",), ("gen-data", "--labels", "env"),
             ("gen-data", "--labels", "greybox"), ("gen-data", "--sampling", "grid"), ("sweep", "--kind", "targets"),
             ("sweep", "--kind", "inits"))


def box_bounds(lo_range, max_width, scenario):
    """The scenario box's bounds, or drawn ones that may be empty or too small to sample."""
    drawn = st.tuples(st.floats(*lo_range), st.floats(0.0, max_width)).map(lambda lw: (lw[0], lw[0] + lw[1]))
    return st.one_of(st.just(scenario), drawn)


@st.composite
def cli_case(draw, model_path):
    """A mode's arguments and a small config: box, start, target, step, launch and run lengths."""
    box1 = draw(box_bounds((0.0, 0.7), 0.8, SCENARIO_BOX.theta1_bounds))
    box4 = draw(box_bounds((-0.3, 0.3), 0.6, SCENARIO_BOX.theta4_bounds))
    # mostly inside the box, sometimes just outside it
    u1, u4 = draw(st.floats(-0.1, 1.1)), draw(st.floats(-0.1, 1.1))
    velocity_jitter = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    cfg = {
        "seed": draw(st.integers(0, 2**16)),
        "predictor": draw(st.sampled_from(["greybox", "blackbox"])),
        "model_path": model_path,
        "box_theta1": box1,
        "box_theta4": box4,
        "phi1": (box1[0] + u1 * (box1[1] - box1[0]), box4[0] + u4 * (box4[1] - box4[0])),
        "target": (draw(st.floats(-2.0, 0.0)), draw(st.floats(-0.5, 1.5))),
        "alpha1": draw(st.floats(1e-3, 2.0)),
        "nominal_state": (EnvConfig().nominal_state + np.r_[0.0, 0.0, 0.0, velocity_jitter]).tolist(),
        "jitter_std": draw(st.lists(st.floats(0.0, 0.05), min_size=6, max_size=6)),
        "couple_geometry": draw(st.booleans()),
        "n_iters": draw(st.integers(1, 8)),
        "n_points": draw(st.integers(1, 6)),
        "n_trials": draw(st.integers(2, 6)),
        "n_seeds": draw(st.integers(1, 2)),
        "n_replicates": 1,
        # up to landings, or squares of them, that overflow
        "landing_noise_std": draw(st.lists(st.floats(0.0, 1e308), min_size=2, max_size=2)),
    }
    return draw(st.sampled_from(MODE_ARGS)), cfg


SAMPLER_ERRORS = ("n_points: grid sampling needs a square count", "box: too small for the sampling margin")


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_outcome_is_a_documented_exit_code_property(random_model_path, data):
    # the typed-error contract: no traceback, an exit code of 0-3, strict JSON on
    # success, finite policies in every run CSV and finite numbers in every CSV
    # written, whatever the outcome; a config that validates is not refused later
    # by the policy sampler
    args, cfg = data.draw(cli_case(random_model_path))
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = pathlib.Path(tmp, "cfg.json"), pathlib.Path(tmp, "o")
        config.write_text(json.dumps(cfg))
        argv = [*args, "--config", str(config), "--out", str(out_dir)]
        try:
            config_from_args(build_parser().parse_args(argv)).validate()
            valid = True
        except ConfigError:
            valid = False
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), stderr.getvalue()
        if code == 0:
            strict_json(stdout.getvalue())
        if valid and code == 1:
            assert not any(m in stderr.getvalue() for m in SAMPLER_ERRORS), stderr.getvalue()
        for path in [*out_dir.glob("run_*.csv"), *out_dir.glob("sweep_*_rep*.csv")]:
            assert all(math.isfinite(r.phi.theta1) and math.isfinite(r.phi.theta4) for r in read_run_csv(path)[0].records)
        assert non_finite_cells(out_dir) == []
