"""Smoke tests of the benchmark itself.  They never gate on time.

    python3 bench/smoke.py

The file name keeps them out of the tier-1 pytest run, which collects
only test_*.py files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny_round(workload, seed: int = 3, tracer=None) -> worker.Tally:
    tally = worker.Tally()
    worker.run_round(workload, seed, 1, tally, tracer=tracer)
    return tally


def corrupted(workload, corrupt):
    """The same workload with every op output passed through ``corrupt``."""

    class Corrupted(type(workload)):
        def run(self, inp):
            return corrupt(super().run(inp))

    return Corrupted()


def edit_doc(change):
    def corrupt(out):
        rc, text = out
        doc = json.loads(text)
        change(doc)
        return rc, json.dumps(doc)

    return corrupt


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_without_failures(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                tally = tiny_round(workload)
                self.assertEqual(tally.attempted, len(workload.classes))
                self.assertEqual(tally.failed, 0, tally.first_error)

    def test_inputs_depend_only_on_the_seed(self):
        w = WORKLOADS["analyze_orthocentric"]
        key = w.classes[0]
        self.assertEqual(w.make_input(key, 9, 2)[0], w.make_input(key, 9, 2)[0])
        self.assertNotEqual(w.make_input(key, 9, 2)[0], w.make_input(key, 10, 2)[0])


class CorruptedOutputs(unittest.TestCase):
    def assert_all_fail(self, workload):
        with contextlib.redirect_stderr(io.StringIO()):
            tally = tiny_round(workload)
        self.assertEqual(tally.failed, tally.attempted)

    def test_analyze_orthocentric_barycentrics(self):
        def change(doc):
            doc["ortho_params"]["bary"][0] += 1e-6

        self.assert_all_fail(corrupted(WORKLOADS["analyze_orthocentric"], edit_doc(change)))

    def test_analyze_orthocentric_sphere_residual(self):
        def change(doc):
            doc["feuerbach"][0]["max_residual"] = 1e-3 * doc["feuerbach"][0]["radius"]

        self.assert_all_fail(corrupted(WORKLOADS["analyze_orthocentric"], edit_doc(change)))

    def test_analyze_general_volume(self):
        def change(doc):
            doc["volume"] *= 1 + 1e-6

        self.assert_all_fail(corrupted(WORKLOADS["analyze_general"], edit_doc(change)))

    def test_nonzero_exit_code(self):
        self.assert_all_fail(corrupted(WORKLOADS["analyze_general"], lambda out: (1, out[1])))

    def test_roundtrip_recovered_parameters(self):
        def corrupt(out):
            p, s, q, edges, circ = out
            return p, s, dataclasses.replace(q, bary=q.bary * (1 + 1e-6)), edges, circ

        self.assert_all_fail(corrupted(WORKLOADS["roundtrip"], corrupt))

    def test_verify_report(self):
        self.assert_all_fail(
            corrupted(WORKLOADS["verify_suites"], lambda out: dataclasses.replace(out, passed=False))
        )

    def test_raising_op(self):
        def corrupt(out):
            raise RuntimeError("injected")

        self.assert_all_fail(corrupted(WORKLOADS["roundtrip"], corrupt))


class Tracing(unittest.TestCase):
    def traced(self, workload):
        tracer = tr.Tracer()
        tracer.install()
        try:
            tally = tiny_round(workload, seed=5, tracer=tracer)
        finally:
            tracer.remove()
        self.assertEqual(tally.failed, 0, tally.first_error)
        return tr.layer_metrics(tracer, tally.attempted, tally.facets)

    def test_call_counts_repeat_exactly(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = self.traced(workload), self.traced(workload)
                counts = [k for k in first if k.endswith(("calls_per_op", "errors_per_op"))]
                self.assertTrue(any(first[k] for k in counts))
                self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})

    def test_wrappers_reach_aliases_and_are_removed(self):
        import orthoplex
        from orthoplex import centers, orthocentric, verify

        before = {id(ns): dict(ns) for ns in tr.namespaces()}
        tracer = tr.Tracer()
        tracer.install()
        try:
            self.assertTrue(orthocentric.is_orthocentric.bench_traced)
            self.assertIs(orthocentric.is_orthocentric, centers.is_orthocentric)
            self.assertTrue(orthoplex.run_all.bench_traced)
            self.assertTrue(all(f.bench_traced for f in verify._SUITES.values()))
        finally:
            tracer.remove()
        self.assertEqual(tr.leftover_wrappers(), [])
        after = {id(ns): dict(ns) for ns in tr.namespaces()}
        self.assertEqual(before.keys(), after.keys())
        for key, ns in before.items():
            self.assertTrue(all(after[key][k] is v for k, v in ns.items()))

    def test_raised_calls_are_counted(self):
        from orthoplex import orthocentric, simplex

        s = simplex.from_vertices(3, [[0, 0, 0], [1, 0, 0], [0, 2, 0], [0.3, 0.4, 1]])
        tracer = tr.Tracer()
        tracer.install()
        try:
            with self.assertRaises(orthocentric.NotOrthocentricError):
                orthocentric.params_of(s)
        finally:
            tracer.remove()
        m = tr.layer_metrics(tracer, ops=1, facets=4)
        self.assertEqual(m["orthocentric.params_of.errors_per_op"], 1.0)
        self.assertEqual(m["orthocentric.params_of.calls_per_op"], 1.0)


if __name__ == "__main__":
    unittest.main()
