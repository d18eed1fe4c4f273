"""Spans around every call into the public functions of orthoplex.

The layers are the modules.  ``Tracer.install`` wraps each public function
of the layer modules and rebinds every reference to it that lives in an
``orthoplex.*`` module namespace, including values of module-level dicts
(verify dispatches its suites through one).  That catches
``from .numerics import sym_eigen`` in ``simplex`` and aliases such as
``orthocentric.is_orthocentric``.  ``Tracer.remove`` puts the originals
back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "simplex", "centers", "orthocentric", "families", "verify", "cli")


def _sym_eigen_order(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return int(getattr(m, "a", m).shape[0])


# Extra number recorded on a span, per traced function.
_EXTRA = {"numerics.sym_eigen": _sym_eigen_order}


class Tracer:
    """Owns the wrappers, the rebinding log and the recorded spans.

    A span is ``[name, start, end, parent, op, error, extra]``; ``parent``
    is the index of the enclosing span or -1, ``error`` the exception type
    name when the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack = [-1]
        self.names: list[str] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.op, None,
                    extra(args, kwargs) if extra else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        traced.bench_traced = True
        return traced

    def install(self) -> None:
        self.names = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"orthoplex.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.names.append(f"{layer}.{attr}")
                    wrappers[id(obj)] = (obj, self._wrap(self.names[-1], obj))
        for ns in namespaces():
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, key, value))
                    ns[key] = hit[1]

    def remove(self) -> None:
        for ns, key, original in reversed(self._undo):
            ns[key] = original
        self._undo.clear()


def namespaces():
    """Every orthoplex module dict and every dict held at module level."""
    for name, mod in list(sys.modules.items()):
        if name == "orthoplex" or name.startswith("orthoplex."):
            ns = vars(mod)
            yield ns
            yield from (v for v in list(ns.values()) if type(v) is dict)


def leftover_wrappers() -> list[str]:
    """Names in orthoplex namespaces that still hold a traced wrapper."""
    return [key for ns in namespaces() for key, v in ns.items() if getattr(v, "bench_traced", False)]


def layer_metrics(tracer: Tracer, ops: int, facets: int) -> dict[str, float]:
    """Per-op counts, errors and self times of every traced function and
    every layer, from the spans of ``ops`` ops over ``facets`` facets.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs, so children never overlap.
    """
    spans = tracer.spans
    child = np.zeros(len(spans))
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    order3 = 0
    for i, (name, start, end, _, _, error, extra) in enumerate(spans):
        layer = name.split(".")[0]
        own = (end - start - child[i]) * 1e3
        for key in (name, layer):
            calls[key] += 1
            self_ms[key] += own
        if error is not None:
            errors[name] += 1
        if extra is not None:
            order3 += extra**3
    out = {}
    for key in (*tracer.names, *LAYERS):
        out[f"{key}.calls_per_op"] = calls[key] / ops
        out[f"{key}.self_ms_per_op"] = self_ms[key] / ops
        out[f"{key}.errors_per_op"] = errors[key] / ops
    out["numerics.sym_eigen.order3_sum_per_op"] = order3 / ops
    out["simplex.face.per_facet"] = calls["simplex.face"] / facets if facets else 0.0
    return out
