"""Ratchet: every name `src/ttreturn` defines is reached by the package or perfbench.

A definition is a module-level function or class, or a member: a method or a
dataclass field. It is reached when a module of the package other than
`__init__.py` reads it, or when a string in perfbench's non-test files names it,
such as the traced "RunLog.to_csv". A module-level definition is read by a loaded
name, attribute or identifier string; a member only by a loaded attribute
(`.name`) or an identifier string, so a local variable of the same name does not
reach it. A constructor keyword is no read. The scan goes by name only, so a
definition whose name is read for something else counts as reached. No
definition is exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ttreturn"


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


def reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names the module loads as attributes or identifier strings, and as bare names."""
    attrs = {s for s in strings(tree) if s.isidentifier()}
    bare = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return attrs, bare


def unreached(package: dict[str, str], perfbench: dict[str, str]) -> set[str]:
    """Definitions of the `package` sources ({file name: text}) that neither the
    package outside `__init__.py` reads nor a `perfbench` string names."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    defined = set().union(*(definitions(tree) for tree in trees.values()))
    attrs, bare = set(), set()
    for name, tree in trees.items():
        if name != "__init__.py":
            tree_attrs, tree_bare = reads(tree)
            attrs |= tree_attrs
            bare |= tree_bare
    for text in perfbench.values():
        attrs.update(part for s in strings(ast.parse(text)) for part in s.split(".") if part.isidentifier())
    # a member (Class.name) is reached only as an attribute or a string, a module-level name also bare
    return {name for name in defined
            if name.rsplit(".", 1)[-1] not in (attrs if "." in name else attrs | bare)}


def sources(directory: pathlib.Path, skip_tests: bool = False) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.py"))
            if not (skip_tests and p.name.startswith("test_"))}


def test_no_definition_only_tests_reach():
    found = unreached(sources(PACKAGE), sources(ROOT / "perfbench", skip_tests=True))
    assert found == set(), "reached only by tests (or by nothing)"


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
            "    shadowed: int\n"
            "    def __post_init__(self): pass\n"
            "    def size(self): return self.read\n"
            "    def width(self): return 2\n"
            "def make(shadowed=0, width=1):\n"
            "    return Box(read=1, kw_only=2, shadowed=shadowed).size() + width, 'make'\n"
        ),
    }
    perfbench = {"layers.py": "TARGETS = ['m.traced']\n"}
    assert unreached(package, perfbench) == {"exported", "Box.kw_only", "Box.shadowed", "Box.width"}
