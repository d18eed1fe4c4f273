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
    ``simplex._from_vertex_rows``, which decides one simplex or a stack of
    vertex arrays for ``from_vertices`` and for verify, and, for stacks of
    simplices already validated, in ``simplex._stack``."""
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
    assert callers == {("simplex.py", "_from_vertex_rows"), ("simplex.py", "_stack")}


def test_every_cache_is_bounded():
    """A cache holds its tables for the life of the process, so each
    ``functools.lru_cache`` in the package takes a finite integer
    ``maxsize`` and none is ``functools.cache``, which has no bound."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name not in ("lru_cache", "cache"):
                    continue
                found.append(f"{path.name}:{fn.name}")
                size = None
                if isinstance(dec, ast.Call) and name == "lru_cache":
                    size = dec.args[0] if dec.args else next(
                        (k.value for k in dec.keywords if k.arg == "maxsize"), None)
                assert isinstance(size, ast.Constant) and type(size.value) is int \
                    and size.value > 0, f"unbounded cache on {found[-1]}"
    assert found


def test_verify_builds_no_simplex_outside_its_blocks():
    """Every simplex verify checks is decided once, in its block's one
    ``simplex._from_vertex_rows`` call: ``verify.py`` calls none of the
    one-simplex builders, which would decide a fixture a second time."""
    builders = {"from_vertices", "construct", "kite", "equiradial_general", "regular",
                "rectangular", "face"}
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & builders == set()
    assert "_from_vertex_rows" in called


def _calls(wanted):
    """(module, function, name) of each call in the package whose function
    or attribute name satisfies ``wanted``."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                name = getattr(getattr(node, "func", None), "attr",
                               getattr(getattr(node, "func", None), "id", None))
                if isinstance(node, ast.Call) and wanted(name or ""):
                    found.append((path.name, fn.name, name))
    return found


def test_eigensolves_only_in_sym_eigen():
    """No build or analysis path takes an eigensolve or an SVD: a call of
    ``eig``, ``eigh``, ``eigvals``, ``eigvalsh`` or ``svd`` appears in the
    package only in ``numerics.sym_eigen``, the public kernel."""
    found = _calls(lambda name: name.startswith(("eig", "svd")))
    assert found == [("numerics.py", "sym_eigen", "eigh")]


def test_argv_parsed_only_in_the_memo():
    """The CLI parses an argv once per distinct tuple: a call of
    ``parse_args`` appears in the package only in ``cli._parse``, the
    memoized parse that ``main`` reads."""
    assert _calls(lambda name: name == "parse_args") == [("cli.py", "_parse", "parse_args")]


def test_every_private_helper_has_a_caller():
    """Each module-level private function and class is referenced (a name,
    an attribute or an import) somewhere in the package outside its own
    body, so a helper goes with its last caller.  Names are matched across
    modules, not resolved."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES]
    helpers = [(path.name, node) for path, tree in zip(MODULES, trees) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    refs = [(node, getattr(node, "id", None) or getattr(node, "attr", None)
             or getattr(node, "name", None))
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    unused = []
    for module, helper in helpers:
        inside = {id(node) for node in ast.walk(helper)}
        if not any(name == helper.name and id(node) not in inside for node, name in refs):
            unused.append(f"{module}:{helper.name}")
    assert len(helpers) > 50 and unused == []


def test_no_raise_of_the_base_error():
    """Each error the package raises is a subclass (``InputError``,
    ``NumericError``, ...), so a caller that catches one kind sees all of
    it: no ``raise`` names the base ``OrthoplexError``."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "OrthoplexError" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_out_of_range_rule_only_in_simplex():
    """Every volume leaves float range by ``simplex._factorial_quotient``, so
    the rule's thresholds are named in no other module."""
    names = {"_MAX_FACTORIAL_DIM", "_LOG_FLOAT_MAX"}
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "name", None)
            if name in names:
                found.add(path.name)
    assert found == {"simplex.py"}
