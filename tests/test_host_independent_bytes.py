"""Golden cases whose bytes do not depend on the host's BLAS kernel or numpy's SIMD dispatch.

Each case in COVERED is re-run in a child interpreter under each of SETTINGS,
which change the kernels that OpenBLAS and numpy pick on an x86-64 host, and
its exit code, stdout and stderr hashes and artifact hashes are compared with
tests/golden_outputs.json. The cases it reads from are run first by this
process under its own settings, so only the covered case runs under the
setting. A case joins COVERED once every number it hashes is computed in a
fixed order, away from BLAS and numpy's SIMD transcendentals. Every golden
case is covered: the grey-box returns, their Jacobians and the surrogate run
in the compiled kernels, and the online step, the metrics' norms and the
crossing search's angles on plain floats and libm (Python's math). No case
is left out.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ttreturn
from test_golden_outputs import CASES, CONFIGS, TABLE, observe

TESTS = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(ttreturn.__file__).resolve().parents[1]

SETTINGS = {
    "openblas-nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
    "numpy-without-avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}
# each covered case, with the cases that write its inputs
INPUTS = {"train-blackbox": ("gen-data-greybox",), "run-blackbox": ("gen-data-greybox", "train-blackbox")}
COVERED = {name: INPUTS.get(name, ()) for name, _ in CASES}


def observe_in_child(root: pathlib.Path, name: str, env: dict) -> dict:
    script = (f"import json, pathlib, sys\n"
              f"sys.path[:0] = [{str(TESTS)!r}, {str(SRC)!r}]\n"
              "from test_golden_outputs import CASES, observe\n"
              f"print(json.dumps(observe(pathlib.Path({str(root)!r}), {name!r}, dict(CASES)[{name!r}])))\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                           env={**os.environ, **env})
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(COVERED))
def test_case_matches_the_table_under_setting(tmp_path, name, setting):
    golden = json.loads(TABLE.read_text())
    for config, doc in CONFIGS.items():
        (tmp_path / f"{config}.json").write_text(json.dumps(doc))
    argv = dict(CASES)
    for source in COVERED[name]:
        assert observe(tmp_path, source, argv[source]) == golden[source]
    assert observe_in_child(tmp_path, name, SETTINGS[setting]) == golden[name]
