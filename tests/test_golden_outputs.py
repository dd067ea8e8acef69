"""Golden table: every CLI mode's outputs, byte for byte, against a checked-in table.

Seventeen in-process `cli.main` calls cover every mode, both label sources, both
gradient modes of the grey-box, the black-box predictor, both sweep kinds, a
launch that ends on the table (`run`, exit 2) and one that ends on the floor
(`gen-data`, exit 1). Two of them land at least 100 env-labelled returns or
variance trials in one block, so the block entry of the kernel
(`ballistics.return_landings`) flies many rows at once and not only a few. For
each call the table holds the exit code, the sha256 of stdout and of stderr
(with the output root replaced by `<tmp>`) and the sha256 of every file the
call wrote.

The hashes hold for numpy 2.4.6 on an x86-64 glibc libm. Every case is
covered by tests/test_host_independent_bytes.py: the grey-box returns and
their Jacobians, the surrogate's training and evaluation run in the compiled
kernels in a fixed order, and the online step, the metrics' norms and the
crossing search's angles run on plain floats, so no hashed number passes
through a BLAS product or numpy's SIMD transcendentals. Only libm can still
move the covered cases: `cos`, `sin`, `atan2` and `exp` come from the system
libm, through the kernels and Python's `math`. A change that means to move an
output regenerates the table with

    GOLDEN_UPDATE=1 python -m pytest tests/test_golden_outputs.py

and names each moved file and why in CHANGES.md. A change that claims the
same outputs leaves the table alone.
"""

import hashlib
import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ttreturn.cli import main

TABLE = pathlib.Path(__file__).with_name("golden_outputs.json")
TOKEN = "<tmp>"

# config files written beside the outputs, by name
CONFIGS = {
    "coupled": {"couple_geometry": True},
    "sweep": {"n_seeds": 2, "n_replicates": 2},
    "table": {"nominal_state": [-0.6, 3.9, 1.1, 0.0, -8.3, 0.0]},  # launches end on the table
    "floor": {"nominal_state": [0.3, 3.9, 1.1, 0.0, -8.3, -2.0]},  # launches end on the floor
}

# (name, argv) in call order; "{root}" is the output root, and each call writes to {root}/<name>
CASES = (
    ("grad-check-frozen", ["grad-check", "--n", "40"]),
    ("grad-check-coupled", ["grad-check", "--n", "40", "--config", "{root}/coupled.json"]),
    ("baseline-variance", ["baseline-variance", "--trials", "20"]),
    ("gen-data-env", ["gen-data", "--labels", "env", "--n", "80"]),
    ("gen-data-greybox", ["gen-data", "--labels", "greybox", "--n", "200"]),
    ("gen-data-grid", ["gen-data", "--labels", "greybox", "--sampling", "grid", "--n", "36"]),
    ("train-blackbox", ["train-blackbox", "--epochs", "5", "--dataset", "{root}/gen-data-greybox/dataset.csv"]),
    ("grad-check-blackbox", ["grad-check", "--predictor", "blackbox", "--n", "40",
                             "--model", "{root}/train-blackbox/model.json"]),
    ("run-frozen", ["run", "--iters", "10"]),
    ("run-coupled", ["run", "--iters", "10", "--config", "{root}/coupled.json"]),
    ("run-blackbox", ["run", "--predictor", "blackbox", "--iters", "10",
                      "--model", "{root}/train-blackbox/model.json"]),
    ("sweep-targets", ["sweep", "--kind", "targets", "--iters", "5", "--config", "{root}/sweep.json"]),
    ("sweep-inits", ["sweep", "--kind", "inits", "--iters", "5", "--config", "{root}/sweep.json"]),
    ("run-table-contact", ["run", "--iters", "10", "--config", "{root}/table.json"]),
    ("gen-data-floor-contact", ["gen-data", "--labels", "env", "--n", "20", "--config", "{root}/floor.json"]),
    ("gen-data-env-lockstep", ["gen-data", "--labels", "env", "--n", "150", "--seed", "3"]),
    ("baseline-variance-lockstep", ["baseline-variance", "--trials", "150", "--seed", "4"]),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(root: pathlib.Path, name: str, argv: list) -> dict:
    """Run one call into root/name: its exit code, output hashes and artifact hashes."""
    out_dir = root / name
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([arg.format(root=root) for arg in argv] + ["--out", str(out_dir)])
    files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else []
    return {
        "exit": code,
        "stdout": sha256(stdout.getvalue().replace(str(root), TOKEN).encode()),
        "stderr": sha256(stderr.getvalue().replace(str(root), TOKEN).encode()),
        "files": {p.relative_to(out_dir).as_posix(): sha256(p.read_bytes()) for p in files},
    }


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, doc in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    table = {name: observe(root, name, argv) for name, argv in CASES}
    if os.environ.get("GOLDEN_UPDATE") == "1":
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return table


@pytest.fixture(scope="module")
def golden(observed):
    return json.loads(TABLE.read_text())


def test_table_names_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_outputs_match_the_table(observed, golden, name):
    assert observed[name] == golden.get(name)


def test_contact_cases_fail_as_documented(observed):
    # the table- and floor-contact launches never reach the arm: an aborted run, an infeasible dataset
    assert observed["run-table-contact"]["exit"] == 2
    assert observed["gen-data-floor-contact"]["exit"] == 1
    assert all(observed[name]["exit"] == 0 for name, _ in CASES if "contact" not in name)
