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
