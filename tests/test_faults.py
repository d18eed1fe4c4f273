"""The fault table: each row injects one small fault into a geometry function,
or spoils a fixture, by monkeypatching and names the suites, with the check
labels, that catch it in ``run_all`` at seed 42, d 2..10.

A fault moves a point by 1e-6 of the diameter (along the first axis) or
scales a value by 1 + 1e-6, on the non-regular simplices only (edge
lengths spreading by more than 1e-6) unless the row says "all input".  A
spoilt fixture raises inside its block, which fails "block completes".  A
fault that no suite catches yet is marked ``xfail(strict=True)`` with the
ROADMAP item that is to catch it; the change that does must drop the mark.
"""

import json

import numpy as np
import pytest

from orthoplex import DEFAULT_POLICY, SuiteConfig, centers, cli, families, run_all
from orthoplex import simplex as sx
from orthoplex import verify as vf

EPS = 1e-6
CONFIG = SuiteConfig(seed=42, d_max=10)


def non_regular(s):
    """1.0 on each simplex of ``s`` whose edge lengths spread by more than
    1e-6, else 0.0."""
    return np.asarray(DEFAULT_POLICY.spread(sx.edge_lengths(s)) > 1e-6, dtype=float)


def moved(point, s):
    shift = np.zeros(np.shape(point))
    shift[..., 0] = EPS * np.asarray(sx.diameter(s)) * non_regular(s)
    return point + shift


def grown(x, s):
    return x * (1.0 + EPS * non_regular(s))


def first_grown(x, s):
    """``x`` with its first column (facet 0) grown on the non-regular rows."""
    x = x.copy()
    x[..., 0] *= 1.0 + EPS * non_regular(s)
    return x


def first_level_grown(spheres):
    """The mid-face spheres with the radius of level k = 0 grown, all input."""
    centers_, radii, residuals = spheres
    radii = radii.copy()
    radii[..., 0] *= 1.0 + EPS
    return centers_, radii, residuals


def first_level_moved(spheres, s):
    """The mid-face spheres with the centre of level k = 0 moved, all input."""
    centers_, radii, residuals = spheres
    centers_ = centers_.copy()
    centers_[..., 0, 0] += EPS * np.asarray(sx.diameter(s))
    return centers_, radii, residuals


def flattened(vertices):
    """The vertex rows with their last coordinate dropped to 0: no volume."""
    vertices = vertices.copy()
    vertices[..., -1] = 0.0
    return vertices


def with_gaussian(fixtures, d):
    """The fixtures and a Gaussian d-simplex, which for d >= 3 is not
    orthocentric."""
    return fixtures + [np.random.default_rng(d).normal(size=(d + 1, d))]


# fault: (module, function, the faulty function of (real function, its arguments))
FAULTS = {
    "incenter point": (centers, "incenter", lambda f, s: (moved(f(s)[0], s), f(s)[1])),
    "inradius": (centers, "incenter", lambda f, s: (f(s)[0], grown(f(s)[1], s))),
    "circumradius": (centers, "circumcenter", lambda f, s: (f(s)[0], grown(f(s)[1], s))),
    "volume, all input": (sx, "volume", lambda f, s: f(s) * (1.0 + EPS)),
    "mid-face sphere radius k=0, all input":
        (centers, "_mid_face_spheres", lambda f, s: first_level_grown(f(s))),
    "mid-face sphere centre k=0 moved, all input":
        (centers, "_mid_face_spheres", lambda f, s: first_level_moved(f(s), s)),
    "circumcenter point": (centers, "circumcenter", lambda f, s: (moved(f(s)[0], s), f(s)[1])),
    "monge point": (centers, "monge_point", lambda f, s: moved(f(s), s)),
    "centroid": (centers, "centroid", lambda f, s: moved(f(s), s)),
    "flattened kite fixture": (families, "_kite_pose", lambda f, spec: flattened(f(spec))),
    "non-orthocentric euler fixture":
        (vf, "_family_fixtures", lambda f, d, rng: with_gaussian(f(d, rng), d)),
    "facet 0 circumradius": (sx, "facet_circumradii", lambda f, s: first_grown(f(s), s)),
    "facet 0 squared-edge sum": (sx, "facet_sq_edge_sums", lambda f, s: first_grown(f(s), s)),
}

# the fault, and each failing suite with the check of its counterexample
CAUGHT = [
    ("incenter point", {"center_equivalences": "incenter facet-distance contract",
                        "rectangular": "incenter equals (r, ..., r)"}),
    ("inradius", {"center_equivalences": "incenter facet-distance contract",
                  "rectangular": "leg inradius"}),
    ("circumradius", {"center_equivalences": "circumcenter equidistance contract",
                      "euler_feuerbach": "feuerbach k=0 radius is circumradius",
                      "rectangular": "leg circumradius"}),
    ("volume, all input", {"rectangular": "legs volume"}),
    ("mid-face sphere radius k=0, all input",
     {"euler_feuerbach": "feuerbach k=0 equidistance"}),
    ("mid-face sphere centre k=0 moved, all input",
     {"euler_feuerbach": "feuerbach k=0 equidistance"}),
    ("circumcenter point", {"center_equivalences": "circumcenter equidistance contract",
                            "euler_feuerbach": "feuerbach k=0 equidistance",
                            "rectangular": "circumcenter midpoint form"}),
    ("monge point", {"euler_feuerbach": "feuerbach k=0 equidistance",
                     "rectangular": "lift round trip"}),
    ("centroid", {"euler_feuerbach": "feuerbach k=1 equidistance",
                  "rectangular": "lift round trip"}),
    ("flattened kite fixture", {"center_equivalences": "block completes",
                                "euler_feuerbach": "block completes"}),
    ("non-orthocentric euler fixture", {"euler_feuerbach": "block completes"}),
]

UNCAUGHT = [
    pytest.param(fault, marks=pytest.mark.xfail(
        strict=True, reason="only the center-equivalence implications read it, and they "
                            "fire on regular input alone: ROADMAP item 2"))
    for fault in ("facet 0 circumradius", "facet 0 squared-edge sum")
]


def inject(monkeypatch, fault):
    module, name, faulty = FAULTS[fault]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: faulty(real, *args))


def test_table_holds_every_fault():
    assert [fault for fault, _ in CAUGHT] + [p.values[0] for p in UNCAUGHT] == list(FAULTS)


@pytest.mark.parametrize("fault, caught", CAUGHT, ids=[fault for fault, _ in CAUGHT])
def test_fault_is_caught(monkeypatch, fault, caught):
    inject(monkeypatch, fault)
    report = run_all(CONFIG)
    assert {r.suite: r.counterexample["check"] for r in report.suites if not r.passed} == caught


@pytest.mark.parametrize("fault", UNCAUGHT)
def test_uncaught_fault_fails_a_suite(monkeypatch, fault):
    inject(monkeypatch, fault)
    assert not run_all(CONFIG).passed


@pytest.mark.parametrize("fault", list(FAULTS))
def test_no_fault_makes_run_all_raise(monkeypatch, fault):
    """Every fault gives a report: a program fault is a failed check, never
    an error that reads as bad input."""
    inject(monkeypatch, fault)
    report = run_all(CONFIG)
    assert [r.suite for r in report.suites] == list(CONFIG.suites)


@pytest.mark.parametrize("fault, check", [
    ("circumcenter point", "feuerbach k=0 equidistance"),
    ("monge point", "feuerbach k=0 equidistance"),
    ("centroid", "feuerbach k=1 equidistance"),
    ("flattened kite fixture", "block completes"),
    ("non-orthocentric euler fixture", "block completes"),
])
def test_center_fault_is_a_failed_euler_report(monkeypatch, capsys, fault, check):
    """The Euler suite once checked the orthocenter barycentrics it reads as
    if they were input, and a spoilt fixture raised out of its block, so
    these faults exited 1 with an error line; now the command prints one
    report that fails, and exits 2."""
    inject(monkeypatch, fault)
    code = cli.main(["verify", "--suite", "euler", "--dim-max", "10", "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["pass"] is False and report["suites"][0]["counterexample"]["check"] == check
