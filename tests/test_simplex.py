import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoplex as op
from orthoplex import DegenerateSimplexError, InputError
from orthoplex import simplex as sx
from conftest import random_rotation


def right_corner(*legs):
    return op.rectangular(op.RectSpec(len(legs), tuple(float(b) for b in legs)))


class TestFromVertices:
    def test_unit_corner_valid(self):
        s = op.from_vertices(3, np.vstack([np.eye(3), np.zeros(3)]))
        assert s.dim == 3 and s.n == 4

    def test_collinear_degenerate(self):
        with pytest.raises(DegenerateSimplexError) as err:
            op.from_vertices(2, [[0, 0], [1, 1], [2, 2]])
        assert err.value.eigen_ratio is not None

    def test_wrong_cardinality_and_nan(self):
        with pytest.raises(InputError):
            op.from_vertices(2, [[0, 0], [1, 0]])
        with pytest.raises(InputError):
            op.from_vertices(2, [[0, 0], [1, 0], [np.inf, 1]])

    def test_vertices_read_only(self):
        s = op.from_vertices(2, [[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0


class TestGram:
    def test_regular_triangle_about_center(self):
        s = op.regular(2, math.sqrt(6.0))
        g = op.gram(s, np.zeros(2)).a
        assert np.allclose(np.diag(g), 2.0)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0)

    def test_origin_at_vertex_zeroes_row(self):
        s = right_corner(3, 4)
        g = op.gram(s, s.vertices[0]).a
        assert np.allclose(g[0], 0.0) and np.allclose(g[:, 0], 0.0)

    def test_rectangular_about_corner(self):
        s = right_corner(3, 4)
        g = op.gram(s, s.vertices[-1]).a
        assert np.allclose(g, np.diag([9.0, 16.0, 0.0]))


class TestVolume:
    def test_unit_corner(self):
        assert op.volume(right_corner(1, 1, 1)) == pytest.approx(1 / 6)

    def test_regular_unit_tetrahedron(self):
        # closed form s^d sqrt((d+1)/2^d)/d! at d=3, s=1
        oracle = math.sqrt(4 / 8) / 6
        assert oracle == pytest.approx(0.1178511301977579)
        assert op.volume(op.regular(3, 1.0)) == pytest.approx(oracle, rel=1e-12)

    @given(lam=st.floats(0.1, 10.0), d=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_scaling_homogeneity(self, lam, d):
        s = op.regular(d, 1.0)
        scaled = op.from_vertices(d, s.vertices * lam)
        assert op.volume(scaled) == pytest.approx(lam**d * op.volume(s), rel=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 5):
            v = rng.normal(size=(d + 1, d))
            s = op.from_vertices(d, v)
            q = random_rotation(d, rng)
            moved = op.from_vertices(d, v @ q + rng.normal(size=d))
            assert op.volume(moved) == pytest.approx(op.volume(s), rel=1e-10)


class TestFace:
    def test_facet_of_regular_is_regular(self):
        s = op.regular(4, 1.0)
        f = op.face(s, (0, 1, 2, 3))
        assert f.dim == 3
        assert np.allclose(sx.edge_lengths(f), 1.0)

    def test_hypotenuse_length(self):
        s = right_corner(3, 4)
        f = op.face(s, (0, 1))
        assert sx.edge_lengths(f)[0] == pytest.approx(5.0)

    def test_edge_face_matches_edge_length(self):
        rng = np.random.default_rng(0)
        s = op.from_vertices(3, rng.normal(size=(4, 3)))
        f = op.face(s, (1, 3))
        assert sx.edge_lengths(f)[0] == pytest.approx(
            np.linalg.norm(s.vertices[1] - s.vertices[3]), rel=1e-12
        )

    def test_composition_consistency(self):
        rng = np.random.default_rng(4)
        s = op.from_vertices(5, rng.normal(size=(6, 5)))
        inner = op.face(op.face(s, (0, 2, 3, 5)), (1, 2, 3))
        direct = op.face(s, (2, 3, 5))
        assert np.allclose(
            sorted(sx.edge_lengths(inner)), sorted(sx.edge_lengths(direct)), rtol=1e-10
        )

    def test_face_below_rank_cut_is_degenerate(self):
        rng = np.random.default_rng(0)
        s = op.from_vertices(3, rng.normal(size=(4, 3)))
        with pytest.raises(DegenerateSimplexError, match="embeds at rank 1 < 2"):
            op.face(s, (0, 1, 2), op.TolerancePolicy(rank_cut=0.99))

    def test_bad_index_sets(self):
        s = op.regular(3, 1.0)
        with pytest.raises(InputError):
            op.face(s, (0,))
        with pytest.raises(InputError):
            op.face(s, (0, 9))
        with pytest.raises(InputError):
            op.face(s, (0, 0, 1))


class TestMetrics:
    def test_fields_positive_and_ordered(self):
        m = op.metrics(op.regular(4, 2.0))
        assert 0 < m.inradius < m.circumradius
        assert m.diameter == pytest.approx(2.0)
        assert m.volume > 0


class TestShapePredicates:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_regular_all_true(self, d):
        flags = op.shape_predicates(op.regular(d, 1.0))
        assert flags.is_regular and flags.is_equiareal
        assert flags.is_equiradial and flags.has_well_distributed_edges

    def test_equiradial_kite_d5(self):
        k = op.kite(op.equiradial_kite(5))
        flags = op.shape_predicates(k)
        assert flags.is_equiradial and not flags.is_regular

    def test_rectangular_all_false(self):
        flags = op.shape_predicates(right_corner(3, 4))
        assert not any(
            [flags.is_regular, flags.is_equiareal, flags.is_equiradial,
             flags.has_well_distributed_edges]
        )


class TestDihedralCosines:
    def test_equilateral_triangle(self):
        t = op.dihedral_cosines(op.regular(2, 1.0))
        off = t[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_regular_tetrahedron(self):
        t = op.dihedral_cosines(op.regular(3, 1.0))
        off = t[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1 / 3)

    def test_right_corner_leg_facets_perpendicular(self):
        t = op.dihedral_cosines(right_corner(1, 1, 1))
        # facets opposite the leg vertices are the coordinate planes
        for i, j in combinations(range(3), 2):
            assert t[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_minkowski_closure_of_normals(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4, 6):
            s = op.from_vertices(d, rng.normal(size=(d + 1, d)))
            weighted = sx.facet_volumes(s)[:, None] * sx.facet_normals(s)
            assert np.linalg.norm(weighted.sum(axis=0)) <= 1e-10 * sx.diameter(s) ** (d - 1)


class TestPerpendicularityResidual:
    def test_triangle_vacuous(self):
        rng = np.random.default_rng(1)
        s = op.from_vertices(2, rng.normal(size=(3, 2)))
        assert sx.edge_perpendicularity_residual(s) == 0.0

    def test_random_tetrahedron_positive(self):
        rng = np.random.default_rng(1)
        s = op.from_vertices(3, rng.normal(size=(4, 3)))
        assert sx.edge_perpendicularity_residual(s) > 1e-3


def pair_loop_residual(s):
    v = s.vertices
    worst = 0.0
    for (i, j), (k, l) in combinations(combinations(range(s.n), 2), 2):
        if {i, j} & {k, l}:
            continue
        e1, e2 = v[i] - v[j], v[k] - v[l]
        worst = max(worst, abs(float(e1 @ e2)) / (np.linalg.norm(e1) * np.linalg.norm(e2)))
    return worst


def closed_form_fixtures():
    rng = np.random.default_rng(12)
    out = [op.regular(4, 1.3), op.kite(op.KiteSpec(5, 1.0, 1.4)), right_corner(0.5, 1.0, 2.0)]
    for d in (2, 3, 5, 8):
        out.append(op.from_vertices(d, rng.normal(size=(d + 1, d))))
        for kind in ("acute", "obtuse"):
            out.append(op.construct(op.sample_params(d, kind, d).bary, 1.0))
    thin = rng.normal(size=(7, 6))
    thin[:, -1] *= 1e-3
    out.append(op.from_vertices(6, thin))
    return out


class TestFacetClosedForms:
    @pytest.mark.parametrize("s", closed_form_fixtures(), ids=repr)
    def test_circumradii_match_face_embedding(self, s):
        want = [op.circumcenter(sx.face(s, sx.facet_indices(s, i)))[1] for i in range(s.n)]
        assert np.allclose(sx.facet_circumradii(s), want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("s", closed_form_fixtures(), ids=repr)
    def test_sq_edge_sums_match_pair_sums(self, s):
        sq = sx.squared_edge_table(s)
        want = [
            sum(sq[a, b] for a, b in combinations(sx.facet_indices(s, i), 2))
            for i in range(s.n)
        ]
        assert np.allclose(sx.facet_sq_edge_sums(s), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("s", closed_form_fixtures(), ids=repr)
    def test_perpendicularity_matches_pair_loop(self, s):
        assert sx.edge_perpendicularity_residual(s) == pytest.approx(
            pair_loop_residual(s), rel=1e-12, abs=1e-15
        )

    def test_barycentric_reproduces_point(self):
        s = op.from_vertices(4, np.random.default_rng(3).normal(size=(5, 4)))
        w = np.array([0.1, 0.4, -0.2, 0.3, 0.4])
        assert np.allclose(sx.barycentric(s, w @ s.vertices), w, atol=1e-12)
