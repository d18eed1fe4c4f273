"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Tolerances are pinned here to the contract values; nothing is
deferred to later calibration.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

import orthoplex as op
from orthoplex import cli
from orthoplex import simplex as sx
from orthoplex import verify as vf


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def facet_circumradii(s):
    return np.array(
        [op.circumcenter(sx.face(s, sx.facet_indices(s)[i]))[1] for i in range(s.n)]
    )


def orthocentric_fixtures(d_max=6):
    """Orthocentric fixtures across families and dimensions (d <= d_max)."""
    out = []
    for d in range(2, d_max + 1):
        out.append(op.regular(d, 1.0))
        rng = np.random.default_rng(100 + d)
        out.append(op.rectangular(op.RectSpec(d, tuple(rng.uniform(0.5, 2.0, d)))))
        if d >= 4:
            out.append(op.kite(op.equiradial_kite(d)))
        for kind in (op.ACUTE, op.OBTUSE):
            for seed in range(3):
                p = op.sample_params(d, kind, seed)
                out.append(op.construct(p.bary, 1.0))
    return out


def test_criterion_1_formula_fixtures():
    tol = 1e-9

    m = op.regular_metrics(3, 1.0)
    assert m.circumradius**2 == pytest.approx(0.375, rel=tol)
    assert m.altitude == pytest.approx(0.816496580927726, rel=tol)
    assert m.volume == pytest.approx(0.117851130197758, rel=tol)
    assert m.inradius == pytest.approx(0.204124145231932, rel=tol)

    r34 = op.rect_metrics(op.RectSpec(2, (3.0, 4.0)))
    assert r34.volume == pytest.approx(6.0, rel=tol)
    assert r34.hyp_volume == pytest.approx(5.0, rel=tol)
    assert r34.altitude == pytest.approx(2.4, rel=tol)
    assert r34.inradius == pytest.approx(1.0, rel=tol)
    assert math.sqrt(r34.r_squared) == pytest.approx(2.5, rel=tol)
    assert np.allclose(r34.circumcenter, [1.5, 2.0], rtol=tol)

    r111 = op.rect_metrics(op.RectSpec(3, (1.0, 1.0, 1.0)))
    assert r111.inradius == pytest.approx(1.0 / (3.0 + math.sqrt(3.0)), rel=tol)
    assert np.allclose(r111.hyp_orthocenter_bary, 1.0 / 3.0, rtol=tol)

    s = op.construct([1 / 3, 1 / 3, 1 / 3], 1.0)
    sq = sx.squared_edge_table(s)
    assert np.allclose(sq[~np.eye(3, dtype=bool)], 6.0, rtol=tol)
    cd = op.circum_data(op.params_of(s), s)
    assert cd.r_squared == pytest.approx(2.0, rel=tol)

    kite_spec = op.equiradial_kite(5)
    assert kite_spec.eccentricity**2 == pytest.approx(0.6, rel=tol)
    radii = facet_circumradii(op.kite(kite_spec))
    assert np.max(radii) - np.min(radii) <= 1e-9 * np.max(radii)

    signatures = []
    for branch in (1, 2):
        s9, sol = op.equiradial_general(9, 2, branch)
        if branch == 1:
            # oracle: roots 13 +/- sqrt(57); a = (27 - sqrt(57))/96
            assert sol.a == pytest.approx((27 - math.sqrt(57)) / 96, rel=tol)
            assert sol.a == pytest.approx(0.2026058913, rel=1e-9)
            assert sol.b == pytest.approx(0.0743485272, rel=1e-8)
        assert abs(sol.x * sol.y + 8 * sol.x + 2 * sol.y) < 1e-10 * abs(sol.x * sol.y)
        assert abs(sol.x * sol.y + sol.x + sol.y - 48.0) < 1e-10 * 48.0
        assert abs(2 * sol.a + 8 * sol.b - 1.0) < 1e-10
        r9 = facet_circumradii(s9)
        assert np.max(r9) - np.min(r9) <= 1e-8 * np.max(r9)
        sig = np.sort(sx.edge_lengths(s9))
        signatures.append(sig / sig.max())
    assert not np.allclose(signatures[0], signatures[1], rtol=1e-3)

    announce(1, "formula fixtures (regular, rectangular, uniform ortho, "
                "equiradial kite, equiradial 9/2)")


def test_criterion_2_round_trips():
    for d in range(2, 9):
        for kind in (op.ACUTE, op.OBTUSE):
            for seed in range(100):
                p = op.sample_params(d, kind, seed)
                s = op.construct(p.bary, 1.0)
                q = op.params_of(s)
                assert np.max(np.abs(q.bary - p.bary)) <= 1e-8, (d, kind, seed)
                assert abs(abs(q.obtuseness) - 1.0) <= 1e-8

    for d in range(3, 9):
        rng = np.random.default_rng(d)
        for _ in range(5):
            legs = rng.uniform(0.5, 2.0, size=d)
            s = op.rectangular(op.RectSpec(d, tuple(legs)))
            facet = sx.face(s, tuple(range(d)))
            spec, _ = op.lift_to_rectangular(facet)
            assert np.max(np.abs(np.asarray(spec.legs) - legs)) <= 1e-8

    announce(2, "params/construct round trips (100 seeds per class, d=2..8) "
                "and hypotenuse-facet lift identity (d=3..8)")


def test_criterion_3_no_coincidence_for_non_regular():
    checked = 0
    for d in range(3, 7):
        per_kind = 125
        for kind in (op.ACUTE, op.OBTUSE):
            produced = 0
            seed = 0
            while produced < per_kind:
                p = op.sample_params(d, kind, seed)
                seed += 1
                s = op.construct(p.bary, 1.0)
                edges = sx.edge_lengths(s)
                if (edges.max() - edges.min()) / edges.max() < 0.01:
                    continue  # skip near-regular draws
                produced += 1
                checked += 1
                rep = op.center_report(s)
                diam = sx.diameter(s)
                pts = [rep.centroid, rep.circumcenter, rep.incenter, rep.monge]
                for a, b in combinations(pts, 2):
                    assert np.linalg.norm(a - b) > 1e-9 * diam, (d, kind, seed)
    assert checked >= 1000

    rng = np.random.default_rng(77)
    for d in range(2, 7):
        for _ in range(10):
            spec = op.RectSpec(d, tuple(rng.uniform(0.5, 2.0, d)))
            s = op.rectangular(spec)
            rep = op.center_report(s)
            assert rep.coincident_pairs == ()
            diam = sx.diameter(s)
            pts = [rep.centroid, rep.circumcenter, rep.incenter, rep.monge]
            for a, b in combinations(pts, 2):
                assert np.linalg.norm(a - b) > 1e-9 * diam

    announce(3, f"no center coincidence on {checked} non-regular orthocentric "
                "samples (d=3..6) and on all rectangular samples")


def test_criterion_4_survey_facts():
    for s in orthocentric_fixtures(d_max=6):
        d = s.dim
        diam = sx.diameter(s)
        h = op.orthocenter(s)
        assert h is not None
        c, big_r = op.circumcenter(s)

        euler = op.euler_line(s)
        if not euler.coincident:
            assert euler.collinearity_residual < 1e-9 * diam
            assert abs(euler.ratio - (d - 1) / 2.0) <= 1e-8 * (d - 1) / 2.0

        vec = (s.vertices - c).sum(axis=0) - (d - 1) * (h - c)
        assert np.linalg.norm(vec) < 1e-9 * diam

        for k in range(d):
            sphere = op.feuerbach_sphere(s, k)
            assert sphere.max_residual < 1e-8 * sphere.radius, (d, k)
        sphere = op.feuerbach_sphere(s, d - 1)
        feet = np.array([
            sx.project_to_affine_hull(
                s.vertices[i], s.vertices[list(sx.facet_indices(s)[i])]
            )
            for i in range(s.n)
        ])
        dist = np.linalg.norm(feet - sphere.center, axis=1)
        assert np.max(np.abs(dist - sphere.radius)) < 1e-8 * sphere.radius

        p = op.params_of(s)
        if not p.rectangular:
            lam = op.lambda_params(p)
            assert abs(np.sum(1.0 / lam.all_values)) < 1e-10
            pts = np.vstack([h, s.vertices])
            vals = lam.all_values
            for a, b in combinations(range(d + 2), 2):
                got = float(np.sum((pts[a] - pts[b]) ** 2))
                assert abs(got - (vals[a] + vals[b])) <= 1e-9 * diam**2

    announce(4, "Euler ratio/collinearity, mid-face spheres (all k) with "
                "altitude feet, vertex-sum identity, reciprocal parameters")


def test_criterion_5_center_equivalence_suite():
    config = vf.SuiteConfig(
        suites=("center_equivalences",), samples=500, seed=2024, d_min=3, d_max=6
    )
    report = vf.run_all(config)
    result = report.suites[0]
    assert result.passed, result.counterexample
    assert result.samples >= 500
    announce(5, f"margin-robust center equivalences on {result.samples} samples "
                "(d=3..6)")


def test_criterion_6_sign_law():
    checked = 0
    for d in range(2, 7):
        for kind in (op.ACUTE, op.OBTUSE):
            for seed in range(40):
                p = op.sample_params(d, kind, seed)
                s = op.construct(p.bary, 1.0)
                v = s.vertices
                pos = int(np.argmax(p.bary))
                checked += 1
                for i in range(s.n):
                    prods = [
                        float((v[j] - v[i]) @ (v[k] - v[i]))
                        for j, k in combinations(
                            [t for t in range(s.n) if t != i], 2
                        )
                    ]
                    if kind == op.ACUTE or i != pos:
                        assert all(t > 0 for t in prods), (d, kind, seed, i)
                    else:
                        assert all(t < 0 for t in prods), (d, kind, seed, i)
    assert checked >= 400
    announce(6, f"sign law on {checked} constructions: acute all strongly "
                "acute; obtuse exactly one strongly obtuse vertex")


def test_criterion_7_determinism(capsys):
    argv = ["verify", "--suite", "all", "--samples", "12", "--seed", "42",
            "--dim-min", "2", "--dim-max", "5", "--json"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1.encode() == out2.encode()  # byte-identical
    json.loads(out1)  # well-formed
    with capsys.disabled():
        announce(7, "verify reports are byte-identical for a fixed seed")
