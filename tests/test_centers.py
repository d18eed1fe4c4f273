import math
from itertools import combinations

import numpy as np
import pytest

import orthoplex as op
from orthoplex import NotOrthocentricError
from orthoplex import DEFAULT_POLICY, centers
from orthoplex import verify as vf
from orthoplex import simplex as sx


def k_face_centroids(s, k):
    """Centroids of all k-faces in ``combinations`` order, one ``mean`` per face."""
    return np.array([s.vertices[list(f)].mean(axis=0) for f in combinations(range(s.n), k + 1)])


def right_corner(*legs):
    return op.rectangular(op.RectSpec(len(legs), tuple(float(b) for b in legs)))


def classical_orthocenter(a, b, c):
    """Altitude-intersection oracle for a triangle (two line equations)."""
    m = np.array([b - c, c - a])
    rhs = np.array([float(a @ (b - c)), float(b @ (c - a))])
    return np.linalg.solve(m, rhs)


class TestCentroid:
    def test_regular_centered(self):
        assert np.allclose(op.centroid(op.regular(4, 1.0)), 0.0, atol=1e-15)

    def test_right_triangle(self):
        s = op.from_vertices(2, [[0, 0], [3, 0], [0, 4]])
        assert np.allclose(op.centroid(s), [1.0, 4 / 3])

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 4))
        shift = rng.normal(size=4)
        s = op.from_vertices(4, v)
        t = op.from_vertices(4, v + shift)
        assert np.allclose(op.centroid(t), op.centroid(s) + shift)


class TestCircumcenter:
    def test_right_triangle_hypotenuse_midpoint(self):
        c, r = op.circumcenter(right_corner(3, 4))
        assert np.allclose(c, [1.5, 2.0])
        assert r == pytest.approx(2.5)

    def test_regular_tetrahedron_radius(self):
        _, r = op.circumcenter(op.regular(3, 1.0))
        assert r**2 == pytest.approx(3 / 8, rel=1e-12)

    def test_equidistance_contract(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            s = op.from_vertices(d, rng.normal(size=(d + 1, d)))
            c, r = op.circumcenter(s)
            dists = np.linalg.norm(s.vertices - c, axis=1)
            assert np.max(np.abs(dists - r)) <= 1e-9 * r

    def test_orthocentric_half_vertex_sum(self):
        # with the orthocenter at the origin, C = (sum of vertices) / 2
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        c, _ = op.circumcenter(s)
        assert np.allclose(c, s.vertices.sum(axis=0) / 2, atol=1e-12)


class TestIncenter:
    def test_right_triangle(self):
        i, r = op.incenter(right_corner(3, 4))
        assert r == pytest.approx(1.0)
        assert np.allclose(i, [1.0, 1.0])

    def test_regular_tetrahedron_inradius(self):
        _, r = op.incenter(op.regular(3, 1.0))
        assert r == pytest.approx(math.sqrt(1 / 24), rel=1e-12)

    def test_regular_incenter_is_centroid(self):
        s = op.regular(5, 1.0)
        i, _ = op.incenter(s)
        assert np.allclose(i, op.centroid(s), atol=1e-14)

    def test_facet_distance_contract(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            s = op.from_vertices(d, rng.normal(size=(d + 1, d)))
            i, r = op.incenter(s)
            for k in range(s.n):
                pts = s.vertices[list(sx.facet_indices(s)[k])]
                foot = sx.project_to_affine_hull(i, pts)
                assert np.linalg.norm(i - foot) == pytest.approx(r, rel=1e-9)


class TestMongePoint:
    def test_triangle_is_classical_orthocenter(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(3, 2))
        s = op.from_vertices(2, v)
        oracle = classical_orthocenter(*v)
        assert np.allclose(op.monge_point(s), oracle, atol=1e-10)

    def test_segment_has_no_monge_point(self):
        with pytest.raises(op.InputError, match="dimension >= 2"):
            op.monge_point(op.from_vertices(1, [[0.0], [2.0]]))

    def test_regular_is_centroid(self):
        s = op.regular(4, 1.0)
        assert np.allclose(op.monge_point(s), op.centroid(s), atol=1e-12)

    def test_defining_hyperplane_property(self):
        rng = np.random.default_rng(8)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        m = op.monge_point(s)
        diam = sx.diameter(s)
        for i, j in combinations(range(s.n), 2):
            others = [k for k in range(s.n) if k not in (i, j)]
            g_ij = s.vertices[others].mean(axis=0)
            res = abs(float((m - g_ij) @ (s.vertices[i] - s.vertices[j])))
            assert res <= 1e-10 * diam**2

    @pytest.mark.parametrize("d", range(2, 9))
    def test_perpendicularity_residual_on_families(self, d):
        fixtures = [
            op.regular(d, 1.0),
            op.rectangular(op.RectSpec(d, tuple(1.0 + 0.1 * i for i in range(d)))),
            op.construct(op.sample_params(d, "acute", d).bary, 1.0),
        ]
        for s in fixtures:
            m = op.monge_point(s)
            diam = sx.diameter(s)
            for i, j in combinations(range(s.n), 2):
                others = [k for k in range(s.n) if k not in (i, j)]
                g_ij = s.vertices[others].mean(axis=0)
                res = abs(float((m - g_ij) @ (s.vertices[i] - s.vertices[j])))
                assert res <= 1e-9 * diam**2


class TestOrthocenter:
    def test_right_corner_orthocenter_is_corner(self):
        s = right_corner(1, 1, 1)
        h = op.orthocenter(s)
        assert h is not None
        assert np.allclose(h, s.vertices[-1], atol=1e-12)

    def test_generic_tetrahedron_absent(self):
        rng = np.random.default_rng(1)
        assert op.orthocenter(op.from_vertices(3, rng.normal(size=(4, 3)))) is None

    def test_triangle_always_present(self):
        rng = np.random.default_rng(2)
        s = op.from_vertices(2, rng.normal(size=(3, 2)))
        assert op.orthocenter(s) is not None


class TestEulerLine:
    def test_ratio_d3(self):
        e = op.euler_line(op.construct([0.4, 0.3, 0.2, 0.1], 1.0))
        assert e.ratio == pytest.approx(1.0, rel=1e-9)

    def test_ratio_d5(self):
        p = op.sample_params(5, "acute", 0)
        e = op.euler_line(op.construct(p.bary, 1.0))
        assert e.ratio == pytest.approx(2.0, rel=1e-9)

    def test_regular_reported_coincident(self):
        e = op.euler_line(op.regular(4, 1.0))
        assert e.coincident and e.ratio is None and e.collinearity_residual == 0.0

    def test_requires_orthocentric(self):
        rng = np.random.default_rng(3)
        with pytest.raises(NotOrthocentricError):
            op.euler_line(op.from_vertices(3, rng.normal(size=(4, 3))))


class TestFeuerbachSphere:
    def test_nine_point_circle(self):
        rng = np.random.default_rng(4)
        s = op.from_vertices(2, rng.normal(size=(3, 2)))
        sphere = op.feuerbach_sphere(s, 1)
        _, big_r = op.circumcenter(s)
        assert sphere.radius == pytest.approx(big_r / 2, rel=1e-9)
        # passes through edge midpoints and altitude feet
        v = s.vertices
        for i in range(3):
            pts = v[[j for j in range(3) if j != i]]
            mid = pts.mean(axis=0)
            foot = sx.project_to_affine_hull(v[i], pts)
            assert np.linalg.norm(mid - sphere.center) == pytest.approx(sphere.radius, rel=1e-9)
            assert np.linalg.norm(foot - sphere.center) == pytest.approx(sphere.radius, rel=1e-9)

    def test_k0_is_circumsphere(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        sphere = op.feuerbach_sphere(s, 0)
        c, big_r = op.circumcenter(s)
        assert np.allclose(sphere.center, c, atol=1e-12)
        assert sphere.radius == pytest.approx(big_r, rel=1e-12)

    def test_general_facet_sphere(self):
        rng = np.random.default_rng(5)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        sphere = op.feuerbach_sphere(s, 3)
        g = op.centroid(s)
        c, big_r = op.circumcenter(s)
        assert np.allclose(sphere.center, (5 * g - c) / 4, atol=1e-12)
        assert sphere.radius == pytest.approx(big_r / 4, rel=1e-9)
        assert sphere.max_residual <= 1e-10 * big_r

    def test_low_k_requires_orthocentric(self):
        rng = np.random.default_rng(6)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        with pytest.raises(NotOrthocentricError):
            op.feuerbach_sphere(s, 1)
        with pytest.raises(op.InputError):
            op.feuerbach_sphere(s, 4)

    @pytest.mark.parametrize("k", [True, False, 1.5, 2.0, "1", None])
    def test_k_must_be_an_integer(self, k):
        s = op.construct(op.sample_params(5, "acute", 0).bary, 1.0)
        with pytest.raises(op.InputError, match="integer"):
            op.feuerbach_sphere(s, k)

    def test_numpy_integer_k(self):
        s = op.construct(op.sample_params(5, "acute", 0).bary, 1.0)
        for k in (1, 4):
            got, want = op.feuerbach_sphere(s, np.int64(k)), op.feuerbach_sphere(s, k)
            assert got.k == want.k and got.radius == want.radius
            assert np.array_equal(got.center, want.center)



def _sphere_fixtures():
    rng = np.random.default_rng(21)
    acute = op.sample_params(5, "acute", 3)
    obtuse = op.sample_params(4, "obtuse", 4)
    return {
        "acute": op.construct(acute.bary, 1.0),
        "obtuse": op.construct(obtuse.bary, 2.0),
        "rectangular": right_corner(1.0, 1.5, 2.0, 0.7),
        "regular": op.regular(5, 1.3),
        "triangle": op.from_vertices(2, rng.normal(size=(3, 2))),
    }


class TestFeuerbachSpheres:
    @pytest.mark.parametrize("name", sorted(_sphere_fixtures()))
    def test_matches_single_k_bit_exactly(self, name):
        s = _sphere_fixtures()[name]
        assert op.center_report(s).orthocenter is not None
        family = op.feuerbach_spheres(s)
        singles = [op.feuerbach_sphere(s, k) for k in range(s.dim)]
        assert [sp.k for sp in family] == list(range(s.dim))
        for got, want in zip(family, singles):
            assert np.array_equal(got.center, want.center)
            assert got.radius == want.radius
            assert got.max_residual == want.max_residual

    def test_segment_has_its_facet_sphere(self):
        """A 1-simplex is orthocentric but has no level below its facets:
        its one sphere, through its two vertices, is centered at its midpoint."""
        seg = sx.face(op.regular(3, 1.0), (0, 1))
        (sphere,) = op.feuerbach_spheres(seg)
        assert sphere.k == 0
        assert sphere.center.tolist() == [0.5] and sphere.radius == 0.5
        single = op.feuerbach_sphere(seg, 0)
        assert np.array_equal(single.center, sphere.center) and single.radius == sphere.radius
        assert single.max_residual == sphere.max_residual <= 1e-12

    def test_general_simplex_only_facet_sphere(self):
        rng = np.random.default_rng(6)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        assert op.center_report(s).orthocenter is None
        (sphere,) = op.feuerbach_spheres(s)
        want = op.feuerbach_sphere(s, 3)
        assert sphere.k == 3
        assert np.array_equal(sphere.center, want.center)
        assert sphere.radius == want.radius
        assert sphere.max_residual == want.max_residual

    @pytest.mark.parametrize("d", range(2, 11))
    def test_face_centroids_match_explicit_loop(self, d):
        """verify's one-product oracle, the face table's weights times the
        vertices, against one ``mean`` per face, within n eps times the
        largest vertex norm (the sums differ in order)."""
        rng = np.random.default_rng(d)
        s = op.from_vertices(d, 3.0 * rng.normal(size=(d + 1, d)) + 5.0)
        weights, _, starts = vf._face_table(s.n)
        got = np.split(weights @ s.vertices, starts[1:])
        bound = s.n * np.finfo(float).eps * np.max(np.linalg.norm(s.vertices, axis=1))
        assert len(got) == d
        for k, rows in enumerate(got):
            want = k_face_centroids(s, k)
            assert rows.shape == want.shape and np.max(np.abs(rows - want)) <= bound, k

    @pytest.mark.parametrize("name", ["acute", "obtuse", "gaussian", "near"])
    @pytest.mark.parametrize("rel", [1e-9, 1e-6])
    def test_decision_matches_center_report(self, name, rel):
        """The family decides orthocentricity from the misfit itself, bit-equal
        to the family built from a center report's orthocenter."""
        rng = np.random.default_rng(12)
        acute = op.construct(op.sample_params(6, "acute", 2).bary, 1.0)
        s = {
            "acute": acute,
            "obtuse": op.construct(op.sample_params(6, "obtuse", 2).bary, 1.5),
            "gaussian": op.from_vertices(6, rng.normal(size=(7, 6))),
            "near": op.from_vertices(6, acute.vertices + 1e-8 * rng.normal(size=(7, 6))),
        }[name]
        pol = op.TolerancePolicy(rel=rel)
        below = range(s.dim - 1) if op.center_report(s, pol).orthocenter is not None else []
        want = [op.feuerbach_sphere(s, k, pol) for k in [*below, s.dim - 1]]
        got = op.feuerbach_spheres(s, pol)
        assert [sp.k for sp in got] == [sp.k for sp in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.center, b.center)
            assert (a.radius, a.max_residual) == (b.radius, b.max_residual)


def _closed_form_fixtures(d):
    """Orthocentric fixtures of dimension d, keyed by kind; "near" moves an
    acute simplex off orthocentricity by far more than round-off and far
    less than the tolerance, so the off-diagonal slack R matters."""
    rng = np.random.default_rng(40 + d)
    acute = op.construct(op.sample_params(d, "acute", d).bary, 1.0)
    v = acute.vertices + 1e-11 * rng.normal(size=acute.vertices.shape)
    out = {
        "acute": acute,
        "obtuse": op.construct(op.sample_params(d, "obtuse", d).bary, 2.0),
        "rectangular": right_corner(*np.linspace(0.6, 1.8, d)),
        "regular": op.regular(d, 1.3),
        "near": op.from_vertices(d, v),
    }
    if d >= 4:
        out["kite"] = op.kite(op.equiradial_kite(d))
    return out


class TestFeuerbachClosedForm:
    """The closed-form spheres against the enumerated k-face centroids."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_matches_enumerated_centroids(self, d):
        for name, s in _closed_form_fixtures(d).items():
            report = op.center_report(s)
            assert report.orthocenter is not None, name
            g, c, h = report.centroid, report.circumcenter, report.orthocenter
            spheres = op.feuerbach_spheres(s)
            assert [sp.k for sp in spheres] == list(range(d))
            for sp in spheres:
                k = sp.k
                if k == d - 1:
                    want = ((d + 1) * g - c) / d
                else:
                    want = h + (d + 1) / (2.0 * (k + 1)) * (g - h)
                assert np.array_equal(sp.center, want), (name, k)
                dist = np.linalg.norm(k_face_centroids(s, k) - sp.center, axis=1)
                rms = float(np.sqrt(np.mean(dist**2)))
                assert sp.radius == pytest.approx(rms, rel=1e-13, abs=0), (name, k)
                assert sp.radius == pytest.approx(dist.mean(), rel=1e-13, abs=0), (name, k)
                worst = max(np.max(np.abs(dist - dist.mean())), np.max(np.abs(dist - sp.radius)))
                assert sp.max_residual >= worst, (name, k)
                assert sp.max_residual <= 10 * DEFAULT_POLICY.rel * sp.radius, (name, k)

    def test_general_facet_residual_is_measured(self):
        rng = np.random.default_rng(9)
        s = op.from_vertices(6, rng.normal(size=(7, 6)))
        sphere = op.feuerbach_sphere(s, 5)
        dist = np.linalg.norm(k_face_centroids(s, 5) - sphere.center, axis=1)
        assert sphere.max_residual >= np.max(np.abs(dist - sphere.radius))


class TestCenterReport:
    def test_regular_everything_coincides(self):
        rep = op.center_report(op.regular(4, 1.0))
        assert len(rep.coincident_pairs) == 6

    def test_rectangular_no_coincidence(self):
        rep = op.center_report(right_corner(3, 4, 5))
        assert rep.coincident_pairs == ()

    def test_equiradial_kite_no_coincidence(self):
        rep = op.center_report(op.kite(op.equiradial_kite(5)))
        assert rep.coincident_pairs == ()

    @pytest.mark.parametrize("rel", [1e-9, 0.05, 0.2, 0.5])
    def test_pairs_read_the_distance_table(self, rel):
        policy = op.TolerancePolicy(rel=rel)
        fixtures = [op.regular(4, 1.0), right_corner(3, 4, 5), op.kite(op.equiradial_kite(5)),
                    op.from_vertices(4, np.random.default_rng(3).normal(size=(5, 4)))]
        seen = set()
        for s in fixtures:
            rep = op.center_report(s, policy)
            table = centers._center_distances(s)
            points = [rep.centroid, rep.circumcenter, rep.incenter, rep.monge]
            assert table.tolist() == [np.linalg.norm(x - y) for x, y in combinations(points, 2)]
            want = tuple(pair for pair, dist in zip(centers._CENTER_PAIRS, table)
                         if dist <= rel * sx.diameter(s))
            assert rep.coincident_pairs == want
            seen.add(len(want))
        assert len(seen) > 1  # each rel splits the fixtures

    @pytest.mark.parametrize("budget", [None, 1])
    def test_distances_keep_the_pair_difference_bits(self, monkeypatch, budget):
        """The distance table read from the sliced pair table has the bits of
        the four centers' own pair differences, on one simplex and on a
        stack, in one slice or one pair per slice."""

        def pair_differences(s):
            p = np.array((centers.centroid(s), centers.circumcenter(s)[0], centers.incenter(s)[0],
                          centers.monge_point(s))).swapaxes(0, -2)
            i, j = sx._pair_index(len(centers.CENTER_NAMES))
            return np.sqrt(sx._sq_norms(p.take(i, axis=-2) - p.take(j, axis=-2)))

        if budget is not None:
            monkeypatch.setattr(sx, "_SLICE_VALUES", budget)
        rng = np.random.default_rng(8)
        fixtures = [op.from_vertices(5, rng.normal(size=(6, 5))),
                    op.construct(op.sample_params(6, "obtuse", 2).bary, 1.0),
                    sx._from_vertex_rows(4, rng.normal(size=(9, 5, 4)), DEFAULT_POLICY)]
        for s in fixtures:
            got, want = centers._center_distances(s), pair_differences(s)
            assert got.shape == want.shape == s.vertices.shape[:-2] + (6,)
            assert got.tobytes() == want.tobytes()


class TestOrthocentricIdentities:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_vertex_sum_identity(self, d):
        p = op.sample_params(d, "acute", 11)
        s = op.construct(p.bary, 1.0)
        h = op.orthocenter(s)
        c, _ = op.circumcenter(s)
        res = np.linalg.norm((s.vertices - c).sum(axis=0) - (d - 1) * (h - c))
        assert res <= 1e-9 * sx.diameter(s)

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_circumcenter_barycentrics(self, kind):
        # i-th coordinate of the circumcenter is (1 + (1-d) a_i) / 2
        d = 4
        p = op.sample_params(d, kind, 23)
        s = op.construct(p.bary, 1.0)
        c, _ = op.circumcenter(s)
        m = np.vstack([s.vertices.T, np.ones(s.n)])
        bary = np.linalg.solve(m, np.concatenate([c, [1.0]]))
        assert np.allclose(bary, (1 + (1 - d) * p.bary) / 2, atol=1e-9)
