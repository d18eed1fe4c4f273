import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoplex as op
from orthoplex import DegenerateSimplexError, InputError, NumericError
from orthoplex import centers, numerics
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

    @pytest.mark.parametrize(
        "dim, vertices", [(2.0, [[0, 0], [1, 0], [0, 1]]), (True, [[0.0], [1.0]])]
    )
    def test_non_integer_dim_rejected(self, dim, vertices):
        with pytest.raises(InputError, match="integer"):
            op.from_vertices(dim, vertices)

    def test_numpy_integer_dim_accepted(self):
        assert op.volume(op.from_vertices(np.int64(2), [[0, 0], [1, 0], [0, 1]])) == 0.5

    def test_overflowing_edge_products_rejected(self):
        # finite coordinates whose edge-vector inner products overflow
        with pytest.raises(InputError, match="overflow"):
            op.from_vertices(2, [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])

    def test_values_only_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def forbidden(*args, **kwargs):
            raise AssertionError("from_vertices reads eigenvalues only")

        monkeypatch.setattr(numerics, "sym_eigen", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(g) or eigvalsh(g))
        s = op.from_vertices(4, np.random.default_rng(8).normal(size=(5, 4)))
        assert s.dim == 4 and len(calls) == 1

    def test_eigensolve_failure_is_a_numeric_error(self, monkeypatch):
        def diverging(g):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverging)
        with pytest.raises(NumericError, match="failed to converge"):
            op.from_vertices(2, [[0, 0], [1, 0], [0, 1]])

    def test_vertices_read_only(self):
        s = op.from_vertices(2, [[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0


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

    @pytest.mark.parametrize("index_set", [(0, 1), (0, 2, 3), (0, 1, 2, 3), (1, 2, 3, 4, 5)])
    def test_one_eigensolve_per_face(self, monkeypatch, index_set):
        rng = np.random.default_rng(3)
        s = op.from_vertices(5, rng.normal(size=(6, 5)))
        calls = []
        original = numerics.sym_eigen

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(numerics, "sym_eigen", counting)
        f = op.face(s, index_set)
        assert len(calls) == 1
        assert f.dim == len(index_set) - 1 and not f.vertices.flags.writeable
        want = np.linalg.norm(s.vertices[index_set[0]] - s.vertices[index_set[-1]])
        assert np.linalg.norm(f.vertices[0] - f.vertices[-1]) == pytest.approx(want, rel=1e-12)

    def test_bad_index_sets(self):
        s = op.regular(3, 1.0)
        with pytest.raises(InputError):
            op.face(s, (0,))
        with pytest.raises(InputError):
            op.face(s, (0, 9))
        with pytest.raises(InputError):
            op.face(s, (0, 0, 1))
        for bad in [(0, 1.7, 2), (0, 1.0, 2), "012", (True, 2), (0, np.True_, 2), (0, None), 3, None]:
            with pytest.raises(InputError):
                op.face(s, bad)
        assert op.face(s, np.array([0, 1, 2])).dim == 2
        assert op.face(s, (np.int64(3), np.uint8(0))).dim == 1


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


class TestPerpendicularityResidual:
    def test_triangle_vacuous(self):
        rng = np.random.default_rng(1)
        s = op.from_vertices(2, rng.normal(size=(3, 2)))
        assert sx.edge_perpendicularity_residual(s) == 0.0

    def test_random_tetrahedron_positive(self):
        rng = np.random.default_rng(1)
        s = op.from_vertices(3, rng.normal(size=(4, 3)))
        assert sx.edge_perpendicularity_residual(s) > 1e-3

    @pytest.mark.parametrize("d", range(2, 21))
    def test_round_off_on_orthocentric_families(self, d):
        """Regular, rectangular, acute and obtuse simplices, rotated,
        translated, scaled by 1e-3..1e3 and with permuted vertices: the
        misfit stays at round-off, 2 n eps (0.55 n eps seen)."""
        rng = np.random.default_rng(200 + d)
        fixtures = [op.regular(d, 1.3), right_corner(*rng.uniform(0.2, 3.0, d))]
        fixtures += [op.construct(op.sample_params(d, k, d).bary, 1.0) for k in ("acute", "obtuse")]
        for s in fixtures:
            for scale in (1e-3, 1.0, 1e3):
                v = (s.vertices @ random_rotation(d, rng) + rng.normal(size=d)) * scale
                moved = op.from_vertices(d, v[rng.permutation(s.n)])
                assert sx.edge_perpendicularity_residual(moved) <= 2 * s.n * np.finfo(float).eps


def pair_gram_residual(s):
    """Worst normalized |(A_i - A_j) . (A_k - A_l)| over disjoint edge pairs,
    from the whole C(d+1, 2)^2 Gram matrix of unit edge vectors."""
    r = np.arange(s.n)
    i, j = np.nonzero(r[:, None] < r)
    u = (s.vertices[i] - s.vertices[j]) / sx.edge_lengths(s)[:, None]
    disjoint = (
        (i[:, None] != i[None, :]) & (i[:, None] != j[None, :])
        & (j[:, None] != i[None, :]) & (j[:, None] != j[None, :])
    )
    return float(np.max(np.abs(u @ u.T), where=disjoint, initial=0.0))


def misfit_bounds(s):
    """(lo, hi) with lo <= pair_gram_residual(s) <= hi, from the misfit
    m = edge_perpendicularity_residual(s) = delta / max E.

    With D_ij = E_ij - l_i - l_j (zero row sums) and delta = max |D|:
    e_ij . e_kl = (D_il + D_jk - D_ik - D_jl) / 2, so the residual is at most
    2 delta / min E; D_ij is the sum of -2 e_ik . e_jl / ((n-1)(n-2)) over the
    (n-2)(n-3) ordered pairs k != l outside {i, j}, so it is at least
    (n-1) delta / (2 (n-3) max E).  m is widened by 8 n eps against its
    round-off (about 0.6 n eps), which also covers the round-off of the
    residual (about 0.2 n eps).  Without two disjoint edges both are 0.
    """
    n = s.n
    if n <= 3:
        return 0.0, 0.0
    sq = sx.edge_lengths(s) ** 2
    m = sx.edge_perpendicularity_residual(s)
    slack = 8 * n * float(np.finfo(float).eps)
    lo = (n - 1) * (m - slack) / (2 * (n - 3))
    hi = 2 * (m + slack) * float(np.max(sq) / np.min(sq))
    return max(lo, 0.0), hi


def bound_fixtures(d):
    """Gaussian, regular, rectangular, kite and thin simplices, and acute and
    obtuse orthocentric ones rotated, translated, scaled by 1e-3..1e3 and
    moved off orthocentricity by 0..1e-5 of their size."""
    rng = np.random.default_rng(100 + d)
    out = [op.from_vertices(d, rng.normal(size=(d + 1, d))) for _ in range(2)]
    out += [op.regular(d, 1.3), right_corner(*rng.uniform(0.2, 3.0, d))]
    if d >= 3:
        out.append(op.kite(op.KiteSpec(d, 1.0, 1.4)))
    thin = rng.normal(size=(d + 1, d))
    thin[:, -1] *= 1e-3
    out.append(op.from_vertices(d, thin))
    for kind in ("acute", "obtuse"):
        base = op.construct(op.sample_params(d, kind, d).bary, 1.0).vertices
        for move in (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-5):
            scale = 10.0 ** rng.uniform(-3, 3)
            v = base @ random_rotation(d, rng) * scale + rng.normal(size=d) * 10 * scale
            out.append(op.from_vertices(d, v + move * scale * rng.normal(size=v.shape)))
    return out


class TestPerpendicularityBounds:
    """The squared-edge misfit and the pair Gram residual vanish together:
    each bounds the other (:func:`misfit_bounds`)."""

    @pytest.mark.parametrize("d", range(2, 21))
    def test_bounds_bracket_the_residual(self, d):
        for s in bound_fixtures(d):
            lo, hi = misfit_bounds(s)
            assert lo <= pair_gram_residual(s) <= hi, (s, lo, hi)

    @pytest.mark.parametrize("d", range(2, 21))
    def test_decision_equals_residual_test(self, d):
        for s in bound_fixtures(d):
            residual = sx.edge_perpendicularity_residual(s)
            for rel in (1e-12, 1e-9, 1e-6):
                policy = op.TolerancePolicy(rel=rel)
                assert op.is_orthocentric(s, policy) == (residual <= rel), (s, rel)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_disjoint_edges(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        assert sx.edge_perpendicularity_residual(s) == 0.0

    @pytest.mark.parametrize("seed, orthocentric", [(2, True), (3, False)])
    def test_near_threshold_takes_the_exact_residual(self, seed, orthocentric):
        """Moved by 2e-9, the two simplices have misfits 0.74e-9 and 1.19e-9:
        the decision is the misfit itself, with no bound or slack between."""
        base = op.construct(op.sample_params(6, "acute", 6).bary, 1.0).vertices
        move = 2e-9 * np.random.default_rng(seed).normal(size=base.shape)
        s = op.from_vertices(6, base + move)
        policy = op.TolerancePolicy()
        assert 0.5 * policy.rel < least_squares_misfit(s) < 1.5 * policy.rel
        assert op.is_orthocentric(s, policy) is orthocentric
        assert (least_squares_misfit(s) <= policy.rel) is orthocentric


def least_squares_misfit(s):
    """The misfit from the least-squares fit E_ij ~ l_i + l_j solved over all
    C(d+1, 2) pairs at once by ``np.linalg.lstsq``, not the row-sum closed form."""
    if s.n <= 3:
        return 0.0
    r = np.arange(s.n)
    i, j = np.nonzero(r[:, None] < r)
    design = np.zeros((len(i), s.n))
    design[np.arange(len(i)), i] = design[np.arange(len(i)), j] = 1.0
    sq = sx.squared_edge_table(s)[i, j]
    lam = np.linalg.lstsq(design, sq, rcond=None)[0]
    return float(np.max(np.abs(sq - design @ lam)) / np.max(sq))


class TestResidualBlocks:
    """The misfit reads the squared-edge table in one O(d^2) pass, with no
    blocks of the pair Gram matrix."""

    @pytest.mark.parametrize("d", range(2, 41))
    def test_equals_unblocked(self, d):
        rng = np.random.default_rng(d)
        for s in (
            op.from_vertices(d, rng.normal(size=(d + 1, d))),
            op.construct(op.sample_params(d, "obtuse", d).bary, 1.0),
        ):
            got = sx.edge_perpendicularity_residual(s)
            assert abs(got - least_squares_misfit(s)) <= 2 * s.n * np.finfo(float).eps

    def test_round_trip_memory_at_d100(self):
        p = op.sample_params(100, "acute", 1)
        tracemalloc.start()
        try:
            q = op.params_of(op.construct(p.bary, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(q.bary, p.bary, rtol=1e-8)
        assert peak < 100e6


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
        want = [op.circumcenter(sx.face(s, sx.facet_indices(s)[i]))[1] for i in range(s.n)]
        assert np.allclose(sx.facet_circumradii(s), want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("s", closed_form_fixtures(), ids=repr)
    def test_sq_edge_sums_match_pair_sums(self, s):
        sq = sx.squared_edge_table(s)
        want = [
            sum(sq[a, b] for a, b in combinations(sx.facet_indices(s)[i], 2))
            for i in range(s.n)
        ]
        assert np.allclose(sx.facet_sq_edge_sums(s), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("s", closed_form_fixtures(), ids=repr)
    def test_perpendicularity_matches_pair_loop(self, s):
        lo, hi = misfit_bounds(s)
        assert lo <= pair_loop_residual(s) <= hi

    def test_barycentric_reproduces_point(self):
        s = op.from_vertices(4, np.random.default_rng(3).normal(size=(5, 4)))
        w = np.array([0.1, 0.4, -0.2, 0.3, 0.4])
        assert np.allclose(sx.barycentric(s, w @ s.vertices), w, atol=1e-12)


class TestFrame:
    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_normals_are_the_dual_basis(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        b, e, normals, sizes, _ = sx._frame(s)
        rest = sx.facet_indices(s)[b]
        assert np.allclose(e @ normals[rest].T, np.eye(d), atol=1e-12)
        assert np.allclose(normals.sum(axis=0), 0.0, atol=1e-12 * sizes.max())
        assert np.array_equal(sizes, np.linalg.norm(normals, axis=1))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_base_vertex_invariant_under_similarity(self, d):
        rng = np.random.default_rng(40 + d)
        v = rng.normal(size=(d + 1, d))
        base = sx._frame(op.from_vertices(d, v))[0]
        for scale in (1e-3, 0.7, 1e3):
            moved = op.from_vertices(d, scale * v @ random_rotation(d, rng) + rng.normal(size=d))
            assert sx._frame(moved)[0] == base

    def test_base_vertex_avoids_a_needle_apex(self):
        v = 1e-3 * np.random.default_rng(9).normal(size=(5, 4))
        v[4, 0] += 1.0
        assert sx._frame(op.from_vertices(4, v))[0] != 4


PER_SIMPLEX = [
    sx._pairs,
    sx.facet_indices,
    sx.edge_lengths,
    sx.squared_edge_table,
    sx.diameter,
    sx.volume,
    sx.facet_volumes,
    sx.facet_circumradii,
    sx.edge_perpendicularity_residual,
    sx._frame,
    centers.centroid,
    centers.circumcenter,
    centers.incenter,
    centers.monge_point,
    centers._monge_gram,
    centers._center_distances,
]


class TestPerSimplexTables:
    @pytest.mark.parametrize("fn", PER_SIMPLEX, ids=lambda fn: fn.__name__)
    def test_computed_once_and_read_only(self, fn):
        s = op.from_vertices(4, np.random.default_rng(6).normal(size=(5, 4)))
        first = fn(s)
        assert fn(s) is first
        assert fn(op.from_vertices(4, 2.0 * s.vertices)) is not first
        parts = first if isinstance(first, tuple) else (first,)
        for arr in (p for p in parts if isinstance(p, np.ndarray)):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    @pytest.mark.parametrize("d", range(2, 41))
    def test_edge_lengths_match_norm_loop(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        v = s.vertices
        want = np.array([np.linalg.norm(v[i] - v[j]) for i, j in combinations(range(s.n), 2)])
        assert np.array_equal(sx.edge_lengths(s), want)

    def test_altitude_feet_are_projections(self):
        s = op.from_vertices(5, np.random.default_rng(4).normal(size=(6, 5)))
        feet = sx.altitude_feet(s)
        for i in range(s.n):
            others = s.vertices[list(sx.facet_indices(s)[i])]
            # the altitude is perpendicular to every edge of the opposite facet
            assert np.allclose((others - others[0]) @ (s.vertices[i] - feet[i]), 0.0, atol=1e-10)
            # and the foot lies in that facet's hull
            w = sx.barycentric(s, feet[i])
            assert abs(w[i]) <= 1e-10


def gram_loop_facet_volumes(s):
    """Reference: one Gram determinant per facet, the facet's last vertex
    as the base; a facet of a segment is a point, of measure 1."""
    out = []
    for i in range(s.n):
        pts = s.vertices[[j for j in range(s.n) if j != i]]
        edges = pts[:-1] - pts[-1]
        if len(edges) == 0:
            out.append(1.0)
            continue
        det = float(np.linalg.det(edges @ edges.T))
        out.append(float(np.sqrt(max(det, 0.0))) / math.factorial(len(edges)))
    return np.array(out)


class TestPairAndFacetTables:
    @pytest.mark.parametrize("d", range(1, 19))
    def test_facet_volumes_match_gram_loop(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        got, want = sx.facet_volumes(s), gram_loop_facet_volumes(s)
        if d == 1:
            assert got.tolist() == [1.0, 1.0]
        assert np.allclose(got, want, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_stacked_projection_matches_single_hulls(self, d):
        rng = np.random.default_rng(30 + d)
        for m in range(1, d + 2):  # a point, up to d+1 points
            hulls = rng.normal(size=(4, m, d))
            points = rng.normal(size=(4, d))
            want = [sx.project_to_affine_hull(p, h) for p, h in zip(points, hulls)]
            assert np.array_equal(sx.project_to_affine_hull(points, hulls), want)

    def test_one_point_hull_is_that_point(self):
        pts = np.array([[1.5, -2.0, 0.25]])
        assert np.array_equal(sx.project_to_affine_hull([3.0, 1.0, 2.0], pts), pts[0])

    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_facet_indices_rows(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        table = sx.facet_indices(s)
        assert table.shape == (s.n, d)
        for i in range(s.n):
            assert table[i].tolist() == [j for j in range(s.n) if j != i]
        with pytest.raises(ValueError):
            table[0, 0] = 1

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_squared_edge_table_matches_edge_lengths(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        sq = sx.squared_edge_table(s)
        assert np.array_equal(sq, sq.T)
        assert np.all(np.diag(sq) == 0.0)
        assert np.array_equal(np.sqrt(sq[np.triu_indices(s.n, 1)]), sx.edge_lengths(s))
