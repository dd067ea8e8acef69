"""Ratchet: no module of `src/ttreturn` imports a name it never loads.

Every module but `__init__.py` (whose imports are the package's exports) is
scanned. An imported name is used when the module loads it as a name, also as
the root of an attribute (`np.zeros` loads `np`) or inside an annotation. An
import statement that binds a name on purpose, for another module to patch or
read, carries `# noqa: F401` on one of its lines; `from __future__` imports
are compiler directives and bind nothing.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ttreturn"


def unused_imports(text: str) -> set[str]:
    """Names the module `text` imports and never loads, outside `# noqa: F401` statements."""
    tree, lines = ast.parse(text), text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - loaded


def test_no_module_imports_a_name_it_never_loads():
    found = {f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path.read_text())}
    assert found == set()


def test_scan_flags_only_unloaded_names():
    module = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import field, replace\n"
        "from .a import kept  # noqa: F401\n"
        "from .b import (  # noqa: F401\n"
        "    also_kept,\n"
        ")\n"
        "from .c import (\n"
        "    called,\n"
        "    dropped,\n"
        ")\n"
        "from .d import Hint as Alias, Unused as Gone\n"
        "def f(x: Alias) -> None:\n"
        "    return np.zeros(1), os.path.sep, called(x), field\n"
    )
    assert unused_imports(module) == {"json", "replace", "dropped", "Gone"}
