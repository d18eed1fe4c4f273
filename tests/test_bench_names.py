"""The benchmark's traced run reports per-layer metrics by function name.

``bench/run.py`` looks each name of ``BENCHMARK.json`` ``per_layer`` up in
the traced result, so a public function that one of those names refers to
cannot be renamed or deleted without the traced run failing with a
KeyError.  These tests catch that in the ordinary test run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from orthoplex import centers, orthocentric

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_functions():
    """(layer, function) for every per-layer name of the form layer.func.metric."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") == 2})


@pytest.mark.parametrize("layer,func", traced_functions(), ids=".".join)
def test_traced_name_is_a_public_function(layer, func):
    mod = importlib.import_module(f"orthoplex.{layer}")
    obj = getattr(mod, func, None)
    # the same test the tracer uses to pick the functions it wraps
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_orthocentric_reexports_the_centers_decision():
    assert orthocentric.is_orthocentric is centers.is_orthocentric
