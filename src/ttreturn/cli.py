"""Command-line entry point for the experiment harness.

Exit codes: 0 success (also after --help); 1 configuration, input or
feasibility error, a command-line usage error (argparse's usage message goes
to stderr), an input file that cannot be read or an output that cannot be
written; 2 run aborted after too many consecutive missed balls (its CSV keeps
the finished iterations); 3 any other simulation error (a flight that cannot
land or step, a singular or non-finite gradient or landing point in a run, a
degenerate training dataset or one with a non-finite value).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import AbortedRun, ConfigError, InfeasibleRegion, SimulationError
from .harness import ExperimentConfig, SWEEP_START, run_experiment


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttreturn",
        description="Online gradient-descent optimization of ball-return policies.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON experiment config; flags override its fields")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--predictor", choices=("greybox", "blackbox"))
        p.add_argument("--alpha1", type=float, help="initial step length")
        p.add_argument("--iters", dest="n_iters", type=int, help="number of iterations")
        p.add_argument("--target", type=_pair, metavar="X,Y", help="target landing point [m]")
        p.add_argument("--model", dest="model_path", help="trained model file")

    p = sub.add_parser("grad-check", help="analytic vs finite-difference gradient report")
    common(p)
    p.add_argument("--n", dest="n_points", type=int, help="number of random policies")

    p = sub.add_parser("baseline-variance", help="landing scatter of fixed policies")
    common(p)
    p.add_argument("--trials", dest="n_trials", type=int, help="trials per policy")

    p = sub.add_parser("gen-data", help="sample policies and record landings")
    common(p)
    p.add_argument("--n", dest="n_points", type=int, help="number of records")
    p.add_argument("--sampling", choices=("uniform", "grid"))
    p.add_argument("--labels", choices=("env", "greybox"))
    p.add_argument("--dataset", dest="dataset_path", help="dataset CSV path")

    p = sub.add_parser("train-blackbox", help="train the landing-point surrogate")
    common(p)
    p.add_argument("--dataset", dest="dataset_path", help="dataset CSV path")
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("run", help="one online optimization run")
    common(p)
    p.add_argument("--phi1", type=_pair, metavar="T1,T4", help="initial policy [rad]")

    p = sub.add_parser("sweep", help="multi-target or multi-init batches of runs")
    common(p)
    p.add_argument("--kind", dest="sweep_kind", choices=("targets", "inits"))
    p.add_argument("--phi1", type=_pair, metavar="T1,T4", help="initial policy [rad]")

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # a sweep starts at SWEEP_START unless --phi1 or the config file sets phi1
    defaults = {"phi1": SWEEP_START} if args.mode == "sweep" else {}
    cfg = ExperimentConfig.from_json(args.config, **defaults) if args.config else ExperimentConfig(**defaults)
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name not in ("config", "mode") and value is not None
    }
    return replace(cfg, mode=args.mode, **overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after a usage error: an input error here
        return 1 if exc.code else 0
    try:
        cfg = config_from_args(args)
        summary = run_experiment(cfg)
    except (ConfigError, InfeasibleRegion, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AbortedRun as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    # NaN and Infinity are no JSON tokens: the summary prints them as null
    strict = json.loads(json.dumps(summary, default=str), parse_constant=lambda token: None)
    print(json.dumps(strict, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
