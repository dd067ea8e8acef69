"""Ratchet: every name `src/ttreturn` defines is reached by the package or perfbench.

A definition is a module-level function or class, a method, or a dataclass field.
It is reached when a module of the package other than `__init__.py` reads its
name (a loaded name or attribute, or an identifier string), or when a string in
perfbench's non-test files names it, such as the traced "RunLog.to_csv". A
constructor keyword is no read. The scan goes by name only, so a definition
whose name is read for something else counts as reached.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ttreturn"

# definitions no production code reaches yet, each with the plan that will read it
ALLOWED_UNREACHED = {
    "InterceptDiagnostics.noiseless_landing",  # the opt-in diagnostics output of ROADMAP item 1
}


def definitions(tree: ast.Module) -> set[str]:
    """Qualified names of the module's functions, classes, methods and fields."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    out.add(f"{node.name}.{member.name}")
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    out.add(f"{node.name}.{member.target.id}")
    return out


def strings(tree: ast.Module) -> list[str]:
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def reads(tree: ast.Module) -> set[str]:
    """Names the module loads, as bare names, attributes or identifier strings."""
    out = {s for s in strings(tree) if s.isidentifier()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unreached(package: dict[str, str], perfbench: dict[str, str]) -> set[str]:
    """Definitions of the `package` sources ({file name: text}) that neither the
    package outside `__init__.py` reads nor a `perfbench` string names."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    defined = set().union(*(definitions(tree) for tree in trees.values()))
    read = set().union(*(reads(tree) for name, tree in trees.items() if name != "__init__.py"))
    for text in perfbench.values():
        read.update(part for s in strings(ast.parse(text)) for part in s.split(".") if part.isidentifier())
    return {name for name in defined if name.rsplit(".", 1)[-1] not in read}


def sources(directory: pathlib.Path, skip_tests: bool = False) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.py"))
            if not (skip_tests and p.name.startswith("test_"))}


def test_no_definition_only_tests_reach():
    found = unreached(sources(PACKAGE), sources(ROOT / "perfbench", skip_tests=True))
    assert found - ALLOWED_UNREACHED == set(), "reached only by tests (or by nothing)"
    assert ALLOWED_UNREACHED - found == set(), "stale allowlist entry: it is reached now, or gone"


def test_scan_flags_what_only_a_constructor_keyword_or_a_test_reaches():
    package = {
        "__init__.py": "from .m import exported\n__all__ = ['exported']\n",
        "m.py": (
            "from dataclasses import dataclass\n"
            "def exported(): pass\n"
            "def helper(): return 1\n"
            "def traced(): return helper()\n"
            "@dataclass\n"
            "class Box:\n"
            "    read: int\n"
            "    kw_only: int\n"
            "    def __post_init__(self): pass\n"
            "    def size(self): return self.read\n"
            "def make(): return Box(read=1, kw_only=2).size(), 'make'\n"
        ),
    }
    perfbench = {"layers.py": "TARGETS = ['m.traced']\n"}
    assert unreached(package, perfbench) == {"exported", "Box.kw_only"}
