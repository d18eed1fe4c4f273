"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orthoplex"
MODULES = sorted(SRC.rglob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "simplex.py", "centers.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_assert_statement(path):
    """Runtime validation raises: an ``assert`` vanishes under ``python -O``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statement at line(s) {lines}"


def test_simplices_are_built_only_where_validated():
    """Every simplex the package returns passed the one degeneracy rule:
    ``Simplex(...)`` (or ``sx.Simplex(...)``) is called only in
    ``simplex.from_vertices``, in ``simplex._from_vertex_rows``, which runs
    the same rule on a stack of vertex arrays, and, for stacks of simplices
    already validated, in ``simplex._stack``."""
    callers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "Simplex" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path.name, fn.name))
    assert callers == {("simplex.py", "from_vertices"), ("simplex.py", "_from_vertex_rows"),
                       ("simplex.py", "_stack")}
