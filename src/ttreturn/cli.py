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
from dataclasses import fields

from .errors import AbortedRun, ConfigError, InfeasibleRegion, SimulationError
from .harness import MODE_HELP, ExperimentConfig, run_experiment


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return (float(parts[0]), float(parts[1]))


# the argparse type of a flag, by its field's annotation
FLAG_TYPES = {"int": int, "float": float, "str": str, "tuple[float, float]": _pair}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per mode, with the flags the ExperimentConfig fields declare for it."""
    parser = argparse.ArgumentParser(
        prog="ttreturn",
        description="Online gradient-descent optimization of ball-return policies.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, summary in MODE_HELP.items():
        p = sub.add_parser(mode, help=summary)
        p.add_argument("--config", help="JSON experiment config; flags override its fields")
        for f in fields(ExperimentConfig):
            spec = f.metadata
            if spec.get("flag") and mode in spec["modes"]:
                p.add_argument(spec["flag"], dest=f.name, type=FLAG_TYPES[f.type], choices=spec["choices"] or None,
                               metavar=spec["metavar"], help=spec["help"])
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, with the subcommand's mode and the flags given over them."""
    given = {name: value for name, value in vars(args).items() if name != "config" and value is not None}
    return ExperimentConfig.from_json(args.config, **given) if args.config else ExperimentConfig(**given)


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
