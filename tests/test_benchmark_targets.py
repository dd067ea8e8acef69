"""The benchmark's tracer targets exist in the package.

perfbench/layers.py names the ttreturn functions and methods its traced runs
wrap; a name that no longer resolves would only show when the benchmark runs.
"""

import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# module-level copies the tracer must patch besides each defining module
BINDINGS = (
    ("ttreturn", "launch", "ttreturn.env"),
    ("ttreturn.env", "propagate_to_landing", "ttreturn.ballistics"),
    ("ttreturn.greybox", "propagate_to_landing", "ttreturn.ballistics"),
    ("ttreturn.harness", "propagate_to_landing", "ttreturn.ballistics"),
    ("ttreturn.harness", "intercept", "ttreturn.env"),
    ("ttreturn.harness", "predict_landing_with_gradient", "ttreturn.greybox"),
    ("ttreturn.harness", "mlp_jacobian", "ttreturn.blackbox"),
)


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("layers")


def test_every_target_resolves(layers):
    assert layers.TARGETS
    for target in layers.TARGETS:
        owner = importlib.import_module(target.owner)
        value = owner
        for part in target.attr.split("."):
            value = getattr(value, part, None)
        assert callable(value), f"{target.name}: {target.owner}.{target.attr} does not exist"


@pytest.mark.parametrize("module,name,owner", BINDINGS)
def test_traced_bindings_are_the_defining_functions(module, name, owner):
    assert getattr(importlib.import_module(module), name) is getattr(importlib.import_module(owner), name)
