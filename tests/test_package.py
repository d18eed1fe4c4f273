"""The package namespace: which modules ``import orthoplex`` and each
subcommand load, and the names served from ``families`` and ``verify``
on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthoplex as op

SRC = Path(op.__file__).resolve().parent

FAMILIES = [
    "EquiradialSolution", "EquiradialSpec", "KiteMetrics", "KiteSpec", "RectMetrics",
    "RectSpec", "RegularMetrics", "equiradial_admissible", "equiradial_general",
    "equiradial_kite", "kite", "kite_metrics", "lift_to_rectangular", "rect_metrics",
    "rectangular", "regular", "regular_metrics",
]
VERIFY = ["SuiteConfig", "SuiteResult", "VerificationReport", "run_all"]

# Runs one subcommand in a fresh interpreter and prints, as its last line,
# its exit code and the optional modules loaded after `import orthoplex`,
# after `import orthoplex.cli` and after the command.
SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return [m for m in ("orthoplex.families", "orthoplex.verify") if m in sys.modules]
import orthoplex
steps = [loaded()]
from orthoplex import cli
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, *steps, loaded()]))
"""


def run_fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("ORTHOPLEX_TOL", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0.5, 0.8]]}))
    return str(path)


@pytest.mark.parametrize("command, after", [
    ("analyze", []),
    ("construct", ["orthoplex.families"]),
    ("lift-rect", ["orthoplex.families"]),
    ("verify", ["orthoplex.families", "orthoplex.verify"]),
])
def test_each_command_loads_only_what_it_runs(triangle, command, after):
    argv = {
        "analyze": ["analyze", "--json", triangle],
        "construct": ["construct", "regular", "--dim", "3", "--edge", "1", "--json"],
        "lift-rect": ["lift-rect", "--json", triangle],
        "verify": ["verify", "--suite", "rect", "--samples", "4", "--dim-max", "3", "--json"],
    }[command]
    assert run_fresh(*argv) == [0, [], [], after]


@pytest.mark.parametrize("name", FAMILIES + VERIFY)
def test_lazy_names_are_the_modules_objects(name):
    module = op.families if name in FAMILIES else op.verify
    assert getattr(op, name) is getattr(module, name)
    assert name not in vars(op)  # served, not stored


def test_submodules_are_served():
    from orthoplex import families, verify

    assert op.families is families and op.verify is verify
    assert op.run_all is verify.run_all


def test_a_rebound_name_shows_through(monkeypatch):
    from orthoplex import verify

    stub = object()
    monkeypatch.setattr(verify, "run_all", stub)
    assert op.run_all is stub
    monkeypatch.undo()
    assert op.run_all is verify.run_all is not stub
    assert "run_all" not in vars(op)


def test_dir_and_star_import_list_every_name():
    eager = ["construct", "params_of", "from_vertices", "center_report", "InputError",
             "DEFAULT_POLICY", "errors", "numerics", "simplex", "centers", "orthocentric"]
    names = {*FAMILIES, *VERIFY, *eager, "families", "verify"}
    assert names <= set(dir(op))
    ns = {}
    exec("from orthoplex import *", ns)
    assert names <= set(ns)
    assert all(ns[name] is getattr(op, name) for name in names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        op.no_such_name
