import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import orthoplex as op
from orthoplex import (
    DegenerateSimplexError,
    InputError,
    NotOrthocentricError,
    ParametrizationError,
    RectangularParamsError,
)
from orthoplex import centers, cli, numerics
from orthoplex import orthocentric as oc
from orthoplex import simplex as sx
from conftest import count_inverses, random_rotation


def gram_form(a, sigma):
    """The Gram matrix about the orthocenter, sigma (J - diag(1/a))."""
    return sigma * (np.ones((a.size, a.size)) - np.diag(1.0 / a))


def one_draw_at_a_time(d, kind, seed):
    """Reference sampler: one ``dirichlet`` call per rejection draw."""
    code = 0 if kind == "acute" else 1
    rng = np.random.default_rng(np.random.SeedSequence([17, d, code, seed]))
    if kind == "obtuse":
        u = rng.uniform(0.05, 1.0, size=d)
        return np.concatenate([-u, [1.0 + float(u.sum())]])
    margin = min(0.01, 2.0 / (d + 1) ** 2)
    while True:
        a = rng.dirichlet(np.ones(d + 1))
        if float(np.min(a)) >= margin:
            return a


def tri_pose(a, sigma):
    """Reference pose: the LDL^T factor with its mask from ``np.tri`` and its
    diagonal from ``np.fill_diagonal``."""
    d = a.size - 1
    t = np.cumsum(a[::-1])[::-1][1:]
    neg = np.logical_and.accumulate(a[:d] < 0)
    t[neg] = 1.0 - np.cumsum(a[:d])[neg]
    root = np.sqrt(-sigma * t / (a[:d] * np.concatenate(([1.0], t[:-1]))))
    pts = np.where(np.tri(d + 1, d, -1, dtype=bool), -(a[:d] / t) * root, 0.0)
    np.fill_diagonal(pts, root)
    return pts


class TestIsOrthocentric:
    def test_any_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert op.is_orthocentric(op.from_vertices(2, rng.normal(size=(3, 2))))

    @pytest.mark.parametrize("d,t", [(3, 0.9), (4, 0.8), (5, 1.1)])
    def test_kites_always_orthocentric(self, d, t):
        assert op.is_orthocentric(op.kite(op.KiteSpec(d, 1.0, t)))

    def test_perturbed_regular_not_orthocentric(self):
        rng = np.random.default_rng(5)
        v = np.array(op.regular(4, 1.0).vertices)
        v[0] += 0.01 * rng.normal(size=4)
        assert not op.is_orthocentric(op.from_vertices(4, v))


class TestOrthoParams:
    """The record is the paper's pair (a, sigma); the rest is read from it."""

    def test_fields_are_bary_and_obtuseness(self):
        assert [f.name for f in dataclasses.fields(op.OrthoParams)] == ["bary", "obtuseness"]

    @pytest.mark.parametrize("bary, sigma, want", [
        ([0.4, 0.3, 0.2, 0.1], -1.0, (3, op.ACUTE, None, "acute", False)),
        ([-0.5, -0.5, 2.0], 2.5, (2, op.OBTUSE, None, "obtuse", False)),
        ([0.0, 0.0, 1.0, 0.0, 0.0], 0.0, (4, op.RECTANGULAR, 2, "rectangular-at-2", True)),
    ], ids=["acute", "obtuse", "rectangular"])
    def test_derived_from_the_pair(self, bary, sigma, want):
        p = op.OrthoParams(np.array(bary), sigma)
        assert (p.dim, p.kind, p.rect_vertex, p.klass, p.rectangular) == want

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_built_records_agree(self, d):
        for kind in ("acute", "obtuse"):
            p = op.sample_params(d, kind, d)
            q = op.params_of(op.construct(p.bary, 1.0))
            assert (p.dim, p.kind, q.dim, q.kind) == (d, kind, d, kind)
            assert op.restrict_to_face(q, range(d)).dim == d - 1
        corner = op.params_of(op.rectangular(op.RectSpec(d, (1.0,) * d)))
        assert (corner.dim, corner.klass) == (d, f"rectangular-at-{d}")

    @pytest.mark.parametrize("call", [op.edge_and_altitude_data, op.circum_data])
    def test_bary_length_must_match_the_simplex(self, call):
        p = op.OrthoParams(np.full(5, 0.2), -1.0)
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        with pytest.raises(InputError, match="dimension 4 with a simplex of dimension 3"):
            call(p, s)


class TestParamsOf:
    def test_equilateral_side_sqrt6(self):
        s = op.regular(2, math.sqrt(6.0))
        p = op.params_of(s)
        assert np.allclose(p.bary, 1 / 3, atol=1e-12)
        assert p.obtuseness == pytest.approx(-1.0, rel=1e-9)
        assert p.kind == op.ACUTE

    def test_right_corner_rectangular(self):
        s = op.rectangular(op.RectSpec(3, (1.0, 1.0, 1.0)))
        p = op.params_of(s)
        assert p.rectangular and p.rect_vertex == 3
        assert p.obtuseness == 0.0
        assert np.array_equal(p.bary, [0, 0, 0, 1])
        assert p.klass == "rectangular-at-3"

    def test_obtuse_round_trip(self):
        s = op.construct([2.0, -0.5, -0.5], 1.0)
        p = op.params_of(s)
        assert np.allclose(p.bary, [2.0, -0.5, -0.5], atol=1e-9)
        assert p.obtuseness == pytest.approx(1.0, rel=1e-9)
        assert p.kind == op.OBTUSE

    def test_rejects_non_orthocentric(self):
        rng = np.random.default_rng(1)
        with pytest.raises(NotOrthocentricError):
            op.params_of(op.from_vertices(3, rng.normal(size=(4, 3))))

    def test_rejects_without_the_exact_residual(self):
        """A Gaussian 64-simplex is rejected from its O(d^2) squared-edge
        table; its pair Gram matrix alone would take 35 MB."""
        s = op.from_vertices(64, np.random.default_rng(64).normal(size=(65, 64)))
        tracemalloc.start()
        try:
            with pytest.raises(NotOrthocentricError, match=r"residual \S+ exceeds tolerance 1e-09"):
                op.params_of(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_rejection_near_the_threshold_names_the_residual(self):
        base = op.construct(op.sample_params(6, "acute", 6).bary, 1.0).vertices
        s = op.from_vertices(6, base + 2e-9 * np.random.default_rng(3).normal(size=base.shape))
        residual = sx.edge_perpendicularity_residual(s)
        assert 1e-9 < residual < 2e-9
        with pytest.raises(NotOrthocentricError, match=f"residual {residual:.3e} exceeds"):
            op.params_of(s)


    @pytest.mark.parametrize("d", range(3, 17))
    def test_far_from_the_origin(self, d):
        """Translated by 1e6..1e8 times its diameter, a constructed simplex
        loses digits in A - H; wherever the one orthocentricity test still
        holds, its parameters come back, of the sampled kind, and the
        analysis document carries them."""
        rng = np.random.default_rng(d)
        for kind in ("acute", "obtuse"):
            for seed in range(4):
                p = op.sample_params(d, kind, seed)
                s = op.construct(p.bary, 1.0)
                u = rng.normal(size=d)
                shift = u / np.linalg.norm(u) * sx.diameter(s) * 10 ** rng.uniform(6, 8)
                t = op.from_vertices(d, s.vertices + shift)
                if not op.is_orthocentric(t):
                    continue
                q = op.params_of(t)
                assert q.kind == kind
                assert np.abs(q.bary - p.bary).max() <= 1e-6
                doc = cli.analysis_doc(t, numerics.DEFAULT_POLICY)
                assert doc["orthocentric"] and doc["ortho_params"]["class"] == kind

    @pytest.mark.parametrize("d", range(3, 17))
    def test_obtuseness_spread_is_half_the_misfit(self, d):
        """Off the diagonal, the Gram matrix about the Monge point is
        kappa - eps / 2, eps the residual of the least-squares fit
        E_ij ~ l_i + l_j, whose rows sum to 0: the values averaged into the
        obtuseness spread by misfit * max E / 2, at most rel * diam^2 / 2
        where the orthocentricity test passes."""
        rng = np.random.default_rng(d)
        fixtures = [op.from_vertices(d, rng.normal(size=(d + 1, d)))]
        for kind in ("acute", "obtuse"):
            s = op.construct(op.sample_params(d, kind, d).bary, 1.0)
            for eps in (0.0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-6, 1e-3):
                moved = s.vertices + eps * sx.diameter(s) * rng.normal(size=s.vertices.shape)
                fixtures.append(op.from_vertices(d, moved))
        for s in fixtures:
            spread = centers._monge_gram(s)[3]
            max_e = sx.squared_edge_table(s).max()
            misfit = sx.edge_perpendicularity_residual(s)
            assert spread == pytest.approx(misfit * max_e / 2, rel=1e-9, abs=1e-13 * max_e)
            if op.is_orthocentric(s):
                assert spread <= 0.5001 * 1e-9 * sx.diameter(s) ** 2


class TestConstruct:
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_pose_bits_match_tri_and_fill_diagonal(self, kind):
        for d in range(2, 41):
            a = op.sample_params(d, kind, d).bary
            sigma = 1.7 if kind == "obtuse" else -1.7
            assert op.construct(a, 1.7).vertices.tobytes() == tri_pose(a, sigma).tobytes(), d

    def test_equilateral_from_uniform_coordinates(self):
        s = op.construct([1 / 3, 1 / 3, 1 / 3], 1.0)
        assert np.allclose(sx.edge_lengths(s) ** 2, 6.0, rtol=1e-12)

    def test_obtuse_triangle_edges_and_angle(self):
        s = op.construct([2.0, -0.5, -0.5], 1.0)
        sq = sx.squared_edge_table(s)
        assert sq[0, 1] == pytest.approx(1.5, rel=1e-12)
        assert sq[0, 2] == pytest.approx(1.5, rel=1e-12)
        assert sq[1, 2] == pytest.approx(4.0, rel=1e-12)
        v = s.vertices
        cosine = float((v[1] - v[0]) @ (v[2] - v[0])) / (
            np.linalg.norm(v[1] - v[0]) * np.linalg.norm(v[2] - v[0])
        )
        assert cosine == pytest.approx(-1 / 3, rel=1e-12)

    def test_four_coordinate_edge_formula(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        sq = sx.squared_edge_table(s)
        assert sq[0, 1] == pytest.approx(1 / 0.4 + 1 / 0.3, rel=1e-12)

    def test_canonical_pose(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        # orthocenter at the origin, first vertex on the positive first axis
        assert np.allclose(op.monge_point(s), 0.0, atol=1e-12)
        assert s.vertices[0, 0] > 0
        assert np.allclose(s.vertices[0, 1:], 0.0, atol=1e-12)
        # lower-triangular vertex pattern with positive diagonal, zeros exact
        assert not np.any(np.triu(s.vertices, 1)) and np.all(np.diag(s.vertices) > 0)

    def test_pose_reproducible(self):
        a = [0.35, 0.3, 0.2, 0.15]
        s1 = op.construct(a, 1.0)
        s2 = op.construct(a, 1.0)
        assert np.array_equal(s1.vertices, s2.vertices)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 0.5, -0.5, 0.5],   # two positive, one negative
            [0.5, 0.25, 0.25, 0.5],  # sums to 1.5
            [1.0, 0.0, 0.0],         # vanishing coordinate
            [0.5, 0.5, 0.0],         # vanishing coordinate
            [0.5, np.nan, 0.5],      # not finite
            [[0.4, 0.3], [0.2, 0.1]],  # not a vector
            [0.5, 0.5],              # d = 1
        ],
    )
    def test_invalid_patterns_rejected(self, bad):
        with pytest.raises(ParametrizationError):
            op.construct(bad, 1.0)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ParametrizationError, match="scale"):
            op.construct([0.4, 0.3, 0.2, 0.1], scale)

    @pytest.mark.parametrize("bary", [[0.25] * 4, [1.6, -0.2, -0.2, -0.2]])
    def test_overflowing_scale_rejected_without_a_warning(self, bary):
        """A finite scale whose pose overflows meets from_vertices' one
        finiteness rule; the overflow warns nowhere (an error in this suite)."""
        with pytest.raises(InputError, match="must be finite"):
            op.construct(bary, 1e308)

    def test_exact_zero_rejected_without_a_vanishing_test(self):
        # the subset-sum margin and the sign count cover an exact zero
        with pytest.raises(ParametrizationError, match="subset sum"):
            op.construct([1.0, 0.0, 0.0], 1.0)
        with pytest.raises(ParametrizationError, match="positive coordinates"):
            op.construct([0.5, 0.5, 0.0], 1.0)

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_sum_is_checked_at_rel(self, d, kind):
        a = op.sample_params(d, kind, 0).bary
        for off in (5e-10, -5e-10):
            b = a.copy()
            b[-1] += off
            for scale in (1e-6, 1.0, 1e6):
                q = op.params_of(op.construct(b, scale))
                assert np.abs(q.bary - b).max() <= 2 * abs(off)
        for off in (2e-9, -2e-9):
            b = a.copy()
            b[-1] += off
            with pytest.raises(ParametrizationError, match="sum to 1"):
                op.construct(b, 1.0)

    def test_subset_sum_guard(self):
        # admissible sign patterns that fail only the subset-sum margin
        for bad in (
            [0.5, 0.5 - 5e-10, 5e-10],    # acute: a_3 near 0, a_1 + a_2 near 1
            [-5e-10, -0.5, 1.5 + 5e-10],  # obtuse: a_1 near 0, a_2 + a_3 near 1
        ):
            with pytest.raises(ParametrizationError, match="subset sum"):
                op.construct(bad, 1.0)

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_margin_closed_form_matches_subset_scan(self, kind):
        for d in range(2, 11):
            for seed in range(5):
                a = op.sample_params(d, kind, seed).bary
                n = a.size
                masks = (np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1
                sums = masks @ a
                gap = np.min(np.minimum(np.abs(sums), np.abs(sums - 1.0)))
                assert gap == pytest.approx(np.min(np.abs(a)), abs=1e-14)

    def test_rank_deficient_embedding_is_degenerate(self):
        pol = op.TolerancePolicy(rel=1e-12, rank_cut=1e-3)
        with pytest.raises(DegenerateSimplexError, match="affinely dependent") as info:
            op.construct([1e-4, 0.5, 0.5 - 1e-4], 1.0, pol)
        assert info.value.thickness ** 2 <= pol.rank_cut

    def test_full_rank_embedding_can_still_be_degenerate(self):
        """The parameter Gram matrix has full rank 4 here, but the constructed
        vertices have relative thickness 4.6e-6, below sqrt(rank_cut):
        from_vertices' thickness test is what rejects it."""
        bary = [
            -0.39402046949341246, -9.077039410674308, -2.0998658645398247e-09,
            -1.112645077196455e-06, 10.471060994912662,
        ]
        with pytest.raises(DegenerateSimplexError, match="affinely dependent") as info:
            op.construct(bary, 1.0)
        assert info.value.thickness == pytest.approx(4.6e-6, rel=0.01)

    @staticmethod
    def _assert_gram_matches_form(a, scale):
        """On the pose ``construct`` decides, also where it refuses it."""
        sign = 1 if np.count_nonzero(a > 0) == 1 else -1
        v = oc._pose_rows(a, scale, op.DEFAULT_POLICY)
        want = gram_form(a, sign * scale)
        err = float(np.max(np.abs(v @ v.T - want)))
        assert err <= 10 * a.size * np.finfo(float).eps * float(np.max(np.abs(want))), a

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_gram_matches_form_on_skewed_tuples(self, kind):
        """The closed-form pose reproduces the Gram form to a few ulps of its
        largest entry, also with the smallest |a_i| last, where solving for
        the last vertex against the others loses digits."""
        rng = np.random.default_rng(29)
        for d in (2, 3, 4, 6, 9, 16, 31, 64):
            for pos in sorted({0, 1, d // 2, d}):
                for tiny in (1e-3, 1e-5):
                    if kind == "acute":
                        a = rng.dirichlet(np.ones(d + 1))
                        a[pos] = 0.0
                        a *= (1.0 - tiny) / a.sum()
                        a[pos] = tiny
                    else:
                        a = -rng.uniform(0.05, 1.0, size=d + 1)
                        a[pos] = -tiny
                        top = (pos + 1 + int(rng.integers(d))) % (d + 1)
                        a[top] = 0.0
                        a[top] = 1.0 - a.sum()
                    self._assert_gram_matches_form(a, float(rng.uniform(0.5, 4.0)))

    def test_gram_matches_form_on_wide_obtuse_tuples(self):
        """A small negative entry first, large ones after it, the positive one
        last: the suffix sums t_k before the positive entry would cancel
        (relative error up to about max |a_i| n eps) unless they are summed
        as 1 - (prefix), a sum of positive terms."""
        rng = np.random.default_rng(31)
        for d in (3, 6, 9, 16, 31, 64):
            a = np.append(-rng.uniform(100.0, 1000.0, size=d), 0.0)
            a[0] = -0.05
            a[-1] = 1.0 - a.sum()
            self._assert_gram_matches_form(a, 1.0)

    def test_no_eigensolve_or_qr_in_construct(self, monkeypatch):
        """construct reads the vertices off the LDL^T factors; the one
        factorisation on its path is the frame that from_vertices decides by."""

        def forbidden(*args, **kwargs):
            raise AssertionError("construct must not call this")

        monkeypatch.setattr(numerics, "sym_eigen", forbidden)
        monkeypatch.setattr(numerics, "gram_embed", forbidden)
        monkeypatch.setattr(np.linalg, "qr", forbidden)
        calls = count_inverses(monkeypatch)
        for kind in ("acute", "obtuse"):
            op.construct(op.sample_params(7, kind, 3).bary, 2.0)
        assert calls == [(7, 7)] * 2

    def test_scale_sets_obtuseness_magnitude(self):
        p = op.params_of(op.construct([0.25, 0.25, 0.25, 0.25], 2.5))
        assert p.obtuseness == pytest.approx(-2.5, rel=1e-9)


class TestGramForm:
    def test_matrix_matches_definition(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        p = op.params_of(s)
        m = gram_form(p.bary, p.obtuseness)
        h = op.monge_point(s)
        g = (s.vertices - h) @ (s.vertices - h).T
        assert np.allclose(m, g, atol=1e-9)
        # diagonal sigma (1 - 1/a_i) equals |A_i - H|^2
        assert np.allclose(
            np.diag(m), np.sum((s.vertices - h) ** 2, axis=1), atol=1e-9
        )


class TestEdgeAltitudeData:
    def test_worked_altitude(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        data = op.edge_and_altitude_data(op.params_of(s), s)
        assert data.lengths[0] ** 2 == pytest.approx(25 / 6, rel=1e-9)

    def test_equilateral_vertex_distances(self):
        s = op.construct([1 / 3, 1 / 3, 1 / 3], 1.0)
        h = op.monge_point(s)
        assert np.allclose(np.sum((s.vertices - h) ** 2, axis=1), 2.0, rtol=1e-12)

    def test_equilateral_feet_opposite_side(self):
        s = op.construct([1 / 3, 1 / 3, 1 / 3], 1.0)
        data = op.edge_and_altitude_data(op.params_of(s), s)
        h = op.monge_point(s)
        # B_i - H = -(A_i - H)/2 for uniform coordinates
        assert np.allclose(data.feet - h, -(s.vertices - h) / 2, atol=1e-12)

    def test_feet_lie_on_facets(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        data = op.edge_and_altitude_data(op.params_of(s), s)
        for i in range(s.n):
            pts = s.vertices[list(sx.facet_indices(s)[i])]
            proj = sx.project_to_affine_hull(data.feet[i], pts)
            assert np.allclose(proj, data.feet[i], atol=1e-10)

    def test_rectangular_rejected(self):
        s = op.rectangular(op.RectSpec(3, (1.0, 1.0, 1.0)))
        with pytest.raises(RectangularParamsError):
            op.edge_and_altitude_data(op.params_of(s), s)

    def test_wrong_feet_rejected(self, monkeypatch):
        """A foot moved by 1e-6 of the simplex's size fails at any size (with
        an absolute floor of 1e-12 it passed at scale 1e-7)."""
        base = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        for scale in (1.0, 1e-7):
            s = op.from_vertices(3, base.vertices * scale)
            p = op.params_of(s)
            feet = sx.altitude_feet(s).copy()
            feet[2, 1] += 1e-6 * scale
            monkeypatch.setattr(sx, "altitude_feet", lambda simplex, feet=feet: feet)
            with pytest.raises(NotOrthocentricError, match="altitude-foot formula check failed"):
                op.edge_and_altitude_data(p, s)

    def test_edge_formula_rejects_a_simplex_that_is_not_orthocentric(self):
        """a = c / (c - |A_i - H|^2), c the mean off-diagonal Monge Gram
        entry, meets the vertex formula of a Gaussian simplex exactly; its
        squared edges are not -c (1/a_i + 1/a_j)."""
        s = op.from_vertices(4, np.random.default_rng(7).normal(size=(5, 4)))
        _, gram, c = centers._monge_gram(s)[:3]
        p = op.OrthoParams(c / (c - gram.diagonal()), c)
        with pytest.raises(NotOrthocentricError, match="squared-edge formula check failed"):
            op.edge_and_altitude_data(p, s)

    def test_altitude_length_is_the_most_sensitive_to_a_small_coordinate(self):
        """Moving a_0 = 0.1 by 5e-9 keeps the vertex and edge residuals within
        rel diam^2 and the foot within rel diam; the altitude length, which
        moves 1 / (2 a_0) times as far as the foot, leaves rel diam.  (The
        obtuseness alone cannot get there: the edge check bounds its
        relative error by rel, and h_i moves by half of that.)"""
        s = op.construct([0.1, 0.001, 0.002, 0.897], 1.0)
        p = op.params_of(s)
        op.edge_and_altitude_data(p, s)
        bary = p.bary.copy()
        bary[0] -= 5e-9
        with pytest.raises(NotOrthocentricError, match="altitude-length formula check failed"):
            op.edge_and_altitude_data(op.OrthoParams(bary, p.obtuseness), s)

    @pytest.mark.parametrize("scale", [10.0**-k for k in range(0, 17, 2)])
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_wrong_params_rejected_at_every_scale(self, scale, kind):
        """Obtuseness off by 1e-6 relative is rejected however small the
        simplex; the right parameters are accepted."""
        base = op.construct(op.sample_params(6, kind, 6).bary, 1.0)
        s = op.from_vertices(6, base.vertices * scale)
        p = op.params_of(s)
        op.edge_and_altitude_data(p, s)
        wrong = dataclasses.replace(p, obtuseness=p.obtuseness * (1 + 1e-6))
        with pytest.raises(NotOrthocentricError, match="formula check failed"):
            op.edge_and_altitude_data(wrong, s)

    def test_dimension_mismatch_rejected(self):
        p = op.params_of(op.construct([0.5, 0.3, 0.2], 1.0))
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        with pytest.raises(InputError, match="dimension 2 with a simplex of dimension 3"):
            op.edge_and_altitude_data(p, s)


# int() truncation accepted the first four as (0, 1, 2); the next two are out of range or
# repeated; the last two are not iterable
BAD_INDEX_SETS = [(0, 1.7, 2), (0, 1.0, 2), "012", (0, True, 2), (0, 1, 9), (0, 0, 1), 3, None]


class TestRestrictToFace:
    def test_worked_example(self):
        p = op.params_of(op.construct([0.4, 0.3, 0.2, 0.1], 1.0))
        q = op.restrict_to_face(p, (0, 1, 2))
        assert np.allclose(q.bary, [4 / 9, 1 / 3, 2 / 9], atol=1e-9)
        assert q.obtuseness == pytest.approx(-10 / 9, rel=1e-9)

    def test_regular_restricts_to_regular(self):
        p = op.params_of(op.regular(5, 1.0))
        q = op.restrict_to_face(p, (0, 1, 2, 3))
        assert np.allclose(q.bary, 0.25, atol=1e-9)

    def test_dual_path_consistency(self):
        for kind, seed in (("acute", 3), ("obtuse", 4)):
            p = op.sample_params(5, kind, seed)
            s = op.construct(p.bary, 1.0)
            for idx in [(0, 1, 2), (1, 3, 4, 5), (0, 2, 3, 4, 5)]:
                direct = op.params_of(sx.face(s, idx))
                restricted = op.restrict_to_face(op.params_of(s), idx)
                assert np.allclose(direct.bary, restricted.bary, atol=1e-9)
                assert direct.obtuseness == pytest.approx(
                    restricted.obtuseness, rel=1e-9
                )

    def test_too_small_face(self):
        p = op.params_of(op.construct([0.4, 0.3, 0.2, 0.1], 1.0))
        with pytest.raises(InputError):
            op.restrict_to_face(p, (0, 1))
        for bad in BAD_INDEX_SETS:
            with pytest.raises(InputError):
                op.restrict_to_face(p, bad)
        want = op.restrict_to_face(p, (0, 1, 2))
        assert np.array_equal(op.restrict_to_face(p, np.array([0, 1, 2])).bary, want.bary)

    def test_vanishing_face_sum_rejected(self):
        p = op.OrthoParams(bary=np.array([0.5, -0.5, 0.0, 1.0]), obtuseness=1.0)
        with pytest.raises(ParametrizationError, match="vanishes"):
            op.restrict_to_face(p, (0, 1, 2))


class TestCircumData:
    def test_dimension_mismatch_rejected(self):
        p = op.params_of(op.construct([0.5, 0.3, 0.2], 1.0))
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        with pytest.raises(InputError, match="dimension 2 with a simplex of dimension 3"):
            op.circum_data(p, s)

    @pytest.mark.parametrize("other", [
        lambda: op.regular(3, 2.0),  # another shape: r^2 4.208 where s has R^2 1.5
        lambda: op.construct([0.4, 0.3, 0.2, 0.1], 2.0),  # the same shape at another scale
        lambda: op.construct([0.1, 0.2, 0.3, 0.4], 1.0),  # the same values at other vertices
    ], ids=["regular", "scaled", "permuted"])
    def test_parameters_of_another_simplex_rejected(self, other):
        p = op.params_of(op.construct([0.4, 0.3, 0.2, 0.1], 1.0))
        with pytest.raises(InputError, match="do not match the simplex"):
            op.circum_data(p, other())

    def test_parameters_within_the_default_rel_accepted(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        p = op.params_of(s)
        far = dataclasses.replace(p, bary=p.bary + 1e-6)
        with pytest.raises(InputError, match="do not match the simplex"):
            op.circum_data(far, s)
        near = dataclasses.replace(p, bary=p.bary + op.DEFAULT_POLICY.rel / 10)
        assert op.circum_data(near, s).center.tolist() == op.circum_data(p, s).center.tolist()

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_own_parameters_accepted(self, d, kind):
        s = op.construct(op.sample_params(d, kind, d).bary, 3.0)
        p = op.params_of(s)
        cd = op.circum_data(p, s)
        assert cd.r_squared == p.obtuseness / 4.0 * ((d - 1) ** 2 - float((1.0 / p.bary).sum()))

    def test_equilateral(self):
        s = op.construct([1 / 3, 1 / 3, 1 / 3], 1.0)
        cd = op.circum_data(op.params_of(s), s)
        assert cd.r_squared == pytest.approx(2.0, rel=1e-9)
        c, big_r = op.circumcenter(s)
        assert np.allclose(cd.center, c, atol=1e-12)
        assert cd.r_squared == pytest.approx(big_r**2, rel=1e-9)

    def test_interiority_threshold_d4(self):
        p_in = op.OrthoParams(np.full(5, 0.2), -1.0)
        s_in = op.construct(p_in.bary, 1.0)
        assert op.circum_data(op.params_of(s_in), s_in).interior
        bary = np.array([0.4, 0.15, 0.15, 0.15, 0.15])  # 0.4 > 1/3
        s_out = op.construct(bary, 1.0)
        assert not op.circum_data(op.params_of(s_out), s_out).interior

    def test_face_circumradius_against_coordinates(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        got = op.params_of(s).face_r_squared((0, 1, 2))
        assert got == pytest.approx(2.430555555555556, rel=1e-9)
        _, r = op.circumcenter(sx.face(s, (0, 1, 2)))
        assert got == pytest.approx(r**2, rel=1e-9)

    def test_empty_face_rejected(self):
        s = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        p = op.params_of(s)
        with pytest.raises(InputError):
            p.face_r_squared(())
        for bad in BAD_INDEX_SETS:
            with pytest.raises(InputError):
                p.face_r_squared(bad)
        assert p.face_r_squared(np.array([0, 1, 2])) == p.face_r_squared((0, 1, 2))


class TestRectangularParams:
    @pytest.mark.parametrize("call", [
        lambda p, s: op.restrict_to_face(p, (0, 1, 2)),
        lambda p, s: op.circum_data(p, s),
        lambda p, s: op.lambda_params(p),
        lambda p, s: p.face_r_squared((0, 1, 2)),
    ], ids=["restrict_to_face", "circum_data", "lambda_params", "face_r_squared"])
    def test_rejected(self, call):
        s = op.rectangular(op.RectSpec(3, (1.0, 2.0, 3.0)))
        p = op.params_of(s)
        assert p.rectangular
        with pytest.raises(RectangularParamsError):
            call(p, s)


class TestInadmissibleRecords:
    """A hand-built record on which a closed form divides by zero raises
    ParametrizationError, not ZeroDivisionError or numpy's RuntimeWarning
    (an error under this suite's warning filter)."""

    def test_face_r_squared_over_a_vanishing_face_sum(self):
        p = op.OrthoParams(np.array([0.5, -0.5, 1.0]), -1.0)
        with pytest.raises(ParametrizationError, match=r"sum over face \(0, 1\) vanishes"):
            p.face_r_squared((0, 1))

    def test_lambda_params_with_a_zero_coordinate(self):
        with pytest.raises(ParametrizationError, match="coordinate 1 vanishes"):
            op.lambda_params(op.OrthoParams(np.array([0.5, 0.0, 0.5]), -1.0))

    def test_edge_and_altitude_data_with_a_zero_coordinate(self):
        p = op.OrthoParams(np.array([0.4, 0.3, 0.0, 0.3]), -1.0)
        with pytest.raises(ParametrizationError, match="coordinate 2 vanishes"):
            op.edge_and_altitude_data(p, op.construct([0.4, 0.3, 0.2, 0.1], 1.0))


class TestLambdaParams:
    def test_equilateral_values(self):
        lam = op.lambda_params(op.params_of(op.construct([1 / 3] * 3, 1.0)))
        assert lam.lam_h == pytest.approx(-1.0, rel=1e-9)
        assert np.allclose(lam.lam, 3.0, rtol=1e-9)
        assert np.sum(1.0 / lam.all_values) == pytest.approx(0.0, abs=1e-12)

    def test_obtuse_values(self):
        lam = op.lambda_params(op.params_of(op.construct([2.0, -0.5, -0.5], 1.0)))
        assert lam.lam_h == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(np.sort(lam.lam), [-0.5, 2.0, 2.0], rtol=1e-9)

    @pytest.mark.parametrize("kind,seed", [("acute", 0), ("obtuse", 1)])
    def test_distance_reproduction(self, kind, seed):
        p = op.sample_params(4, kind, seed)
        s = op.construct(p.bary, 1.0)
        lam = op.lambda_params(op.params_of(s))
        pts = np.vstack([op.monge_point(s), s.vertices])
        vals = lam.all_values
        diam2 = sx.diameter(s) ** 2
        for i, j in combinations(range(len(pts)), 2):
            got = float(np.sum((pts[i] - pts[j]) ** 2))
            assert abs(got - (vals[i] + vals[j])) <= 1e-9 * diam2
            assert vals[i] + vals[j] > 0


class TestOrthocentricSystem:
    def test_acute_triangle_plus_orthocenter(self):
        s = op.construct([0.5, 0.3, 0.2], 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s)])
        assert op.orthocentric_system_check(pts)

    def test_regular_tetrahedron_plus_centroid(self):
        # oracle-decided: the reciprocal-parameter form lambda_G = -1/8,
        # lambda_vertex = 1/2 satisfies sum(1/lambda) = -8 + 4*2 = 0 with all
        # pairwise sums positive, so this IS an orthocentric system
        s = op.regular(3, 1.0)
        pts = np.vstack([s.vertices, op.centroid(s)])
        assert op.orthocentric_system_check(pts)

    def test_square_corners_fail(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert not op.orthocentric_system_check(pts)

    def test_perturbed_system_fails(self):
        s = op.construct([0.5, 0.3, 0.2], 1.0)
        h = op.monge_point(s) + np.array([0.05, 0.0])
        assert not op.orthocentric_system_check(np.vstack([s.vertices, h]))

    def test_moved_orthocenter_fails_on_its_subsets(self, monkeypatch):
        """At d = 3 a subset need not be orthocentric: with H moved by 1e-3,
        only the simplex without it is, and the check returns False from
        that test, before any Monge point is compared."""
        s = op.construct([0.2, 0.3, 0.1, 0.4], 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s) + 1e-3])
        decided = []
        real = oc.is_orthocentric
        monkeypatch.setattr(oc, "is_orthocentric", lambda t, p: decided.append(real(t, p))
                            or decided[-1])
        monkeypatch.setattr(centers, "monge_point", None)
        assert op.orthocentric_system_check(pts) is False
        assert np.asarray(decided[0]).tolist() == [False] * 4 + [True]

    @pytest.mark.parametrize("d", range(2, 7))
    def test_constructed_plus_orthocenter(self, d):
        p = op.sample_params(d, "acute", d)
        s = op.construct(p.bary, 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s)])
        assert op.orthocentric_system_check(pts)

    def test_shape_guard(self):
        with pytest.raises(InputError):
            op.orthocentric_system_check(np.zeros((4, 4)))

    @pytest.mark.parametrize("points", [[[0.0], [1.0], [3.0]], np.empty((2, 0))])
    def test_dimension_below_two_rejected_up_front(self, points):
        with pytest.raises(InputError, match=r"need d\+2 points in d-space, d >= 2"):
            op.orthocentric_system_check(points)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_subsets_decided_as_one_stack(self, monkeypatch, d):
        """The d+2 simplices take one inverse, one residual table and one
        Monge table, built on one stack whose row i omits point i."""
        s = op.construct(op.sample_params(d, "obtuse", 1).bary, 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s)])
        calls = {"residual": [], "monge": []}
        for module, name, key in ((sx, "edge_perpendicularity_residual", "residual"),
                                  (centers, "monge_point", "monge")):
            def counting(a, *args, _real=getattr(module, name), _key=key, **kwargs):
                calls[_key].append(a.vertices.copy())
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(sx, "from_vertices", None)  # no subset is built alone
        inverses = count_inverses(monkeypatch)
        assert op.orthocentric_system_check(pts)
        assert inverses == [(d + 2, d, d)]
        assert [v.tolist() for v in calls["residual"]] == [[
            np.delete(pts, i, axis=0).tolist() for i in range(d + 2)]]
        assert len(calls["monge"]) == 1 and np.array_equal(calls["monge"][0],
                                                           calls["residual"][0])

    @pytest.mark.parametrize("degenerate", [0, 3])
    def test_degenerate_subset_raises_whatever_the_others_hold(self, degenerate):
        """Subset 0 is not orthocentric about its omitted point (a moved
        orthocenter), and the subset omitting point ``degenerate`` is flat:
        the flat one raises, where a loop over the subsets would have
        returned False before reaching subset 3."""
        s = op.construct([0.5, 0.3, 0.2], 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s) + 0.05])
        rest = np.delete(np.arange(4), degenerate)
        pts[rest[2]] = (pts[rest[0]] + pts[rest[1]]) / 2.0  # three collinear points
        with pytest.raises(op.DegenerateSimplexError):
            op.orthocentric_system_check(pts)


class TestSampleParams:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_acute_in_open_simplex(self, d):
        p = op.sample_params(d, "acute", 9)
        assert np.all(p.bary > 0) and np.all(p.bary < 1)
        assert p.bary.sum() == pytest.approx(1.0)
        assert np.min(p.bary) >= 0.01

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_obtuse_exactly_one_positive(self, d):
        p = op.sample_params(d, "obtuse", 9)
        assert np.count_nonzero(p.bary > 0) == 1
        assert p.bary.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = op.sample_params(4, "acute", 123)
        b = op.sample_params(4, "acute", 123)
        assert np.array_equal(a.bary, b.bary)

    @pytest.mark.parametrize("d", [40, 64])
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_large_dimension_round_trip(self, d, kind):
        p = op.sample_params(d, kind, 0)
        q = op.params_of(op.construct(p.bary, 1.0))
        assert q.kind == kind
        assert np.max(np.abs(q.bary - p.bary)) <= 1e-8

    @pytest.mark.parametrize("d", [*range(2, 65), 200])
    def test_bits_match_one_draw_at_a_time(self, d):
        """The block draw returns the row the one-draw loop would, as an
        array of its own."""
        for kind in ("acute", "obtuse"):
            for seed in range(30):
                got = op.sample_params(d, kind, seed).bary
                want = one_draw_at_a_time(d, kind, seed)
                assert got.tobytes() == want.tobytes(), (kind, seed)
                assert got.base is None

    @pytest.mark.parametrize("seed", range(10))
    def test_margin_at_large_dimension(self, seed):
        p = op.sample_params(200, "acute", seed)
        assert p.bary.shape == (201,) and p.bary.min() >= 2.0 / 201**2

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            op.sample_params(3, "right", 0)
        with pytest.raises(InputError):
            op.sample_params(3, "acute", -1)

    @pytest.mark.parametrize("d, seed", [(3.5, 0), (3.0, 0), (True, 0), (3, 1.5), (3, "x"), (3, True)])
    def test_non_integer_arguments_rejected(self, d, seed):
        with pytest.raises(InputError, match="integer"):
            op.sample_params(d, "acute", seed)

    def test_numpy_integers_are_integers(self):
        want = op.sample_params(4, "acute", 5).bary
        assert np.array_equal(op.sample_params(np.int64(4), "acute", np.uint32(5)).bary, want)


class TestSampleRows:
    """The rows form of the sampler: k tuples from one generator."""

    @pytest.mark.parametrize("d", range(2, 65))
    def test_rows_match_one_row_at_a_time(self, d):
        margin = min(0.01, 2.0 / (d + 1) ** 2)
        for k in range(1, 21):
            rows = oc._sample_rows(d, "acute", k, np.random.default_rng([d, k]))
            rng, want = np.random.default_rng([d, k]), []
            while len(want) < k:  # the first k margin-clearing rows of the stream
                a = rng.dirichlet(np.ones(d + 1))
                if a.min() >= margin:
                    want.append(a)
            assert rows.tobytes() == np.array(want).tobytes(), k
            assert rows.shape == (k, d + 1) and rows.base is None

            rows = oc._sample_rows(d, "obtuse", k, np.random.default_rng([d, k]))
            rng = np.random.default_rng([d, k])
            want = [one_obtuse_row(rng, d) for _ in range(k)]
            assert rows.tobytes() == np.array(want).tobytes(), k
            assert rows.shape == (k, d + 1) and rows.base is None


def one_obtuse_row(rng, d):
    u = rng.uniform(0.05, 1.0, size=d)
    return np.concatenate([-u, [1.0 + float(u.sum())]])


def moved_corner(delta, rotation, scale):
    """The right-corner tetrahedron e1, e2, e3, 0 with its corner moved to
    -delta (1, 1, 1): orthocentric and acute for every delta > 0."""
    return op.from_vertices(3, np.vstack([np.eye(3), -delta * np.ones((1, 3))]) @ rotation * scale)


class TestRectangularBand:
    """Rectangular and parametrizable are decided by one rule, so every
    orthocentric simplex near a right corner has parameters."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_class_changes_once_along_the_sweep(self, scale, rotate):
        rotation = random_rotation(3, np.random.default_rng(1)) if rotate else np.eye(3)
        classes = []
        for delta in np.logspace(-12, -6, 61):
            doc = cli.analysis_doc(moved_corner(delta, rotation, scale), op.DEFAULT_POLICY)
            assert doc["orthocentric"] and doc["ortho_params"] is not None, delta
            classes.append(doc["ortho_params"]["class"])
        changes = [i for i in range(1, len(classes)) if classes[i] != classes[i - 1]]
        assert len(changes) == 1
        assert (classes[0], classes[-1]) == ("rectangular-at-3", "acute")

    def test_tied_coordinates_name_one_corner(self):
        """A needle is rectangular within rel at each of its tied base
        vertices; the first of them is the corner at every length.  A true
        right corner keeps its own vertex."""
        triangle = [op.from_vertices(2, [[-0.5, 0.0], [0.5, 0.0], [0.0, length]])
                    for length in np.logspace(np.log10(1.7e4), np.log10(4.8e4), 40)]
        base = np.hstack([op.regular(2, 1.0).vertices, np.zeros((3, 1))])
        tetrahedron = [op.from_vertices(3, np.vstack([base, [0.0, 0.0, length]]))
                       for length in np.logspace(np.log10(1.5e4), np.log10(4e4), 20)]
        for needles in (triangle, tetrahedron):
            params = [op.params_of(s) for s in needles]
            assert all(p.rectangular for p in params)
            assert {p.rect_vertex for p in params} == {0}
        right = np.vstack([np.eye(3), np.zeros((1, 3))])  # the right corner is vertex 3
        for vertices, k in ((right, 3), (right[[0, 3, 1, 2]], 1)):
            assert op.params_of(op.from_vertices(3, vertices)).rect_vertex == k


class TestRoundTripsAndLaws:
    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_round_trip_sample(self, d, kind):
        for seed in range(10):
            p = op.sample_params(d, kind, seed)
            s = op.construct(p.bary, 1.0)
            q = op.params_of(s)
            assert np.max(np.abs(q.bary - p.bary)) <= 1e-8
            assert abs(abs(q.obtuseness) - 1.0) <= 1e-8

    def test_quadratic_form_identity(self):
        # |sum b_i (A_i - H)|^2 = c [ (sum b_i)^2 - sum b_i^2 / a_i ]
        rng = np.random.default_rng(42)
        for kind in ("acute", "obtuse"):
            p = op.sample_params(4, kind, 17)
            s = op.construct(p.bary, 1.0)
            h = op.monge_point(s)
            c = op.params_of(s).obtuseness
            for _ in range(5):
                b = rng.normal(size=s.n)
                lhs = float(np.sum((b @ (s.vertices - h)) ** 2))
                rhs = c * (b.sum() ** 2 - float(np.sum(b**2 / p.bary)))
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_non_rectangular_conditions(self, kind):
        p = op.sample_params(4, kind, 2)
        s = op.construct(p.bary, 1.0)
        h = op.monge_point(s)
        diam = sx.diameter(s)
        # no face is rectangular and H avoids every proper face's affine hull
        for size in (3, 4):
            for idx in combinations(range(s.n), size):
                q = op.restrict_to_face(op.params_of(s), idx)
                assert abs(q.obtuseness) > 1e-6
                pts = s.vertices[list(idx)]
                dist = np.linalg.norm(h - sx.project_to_affine_hull(h, pts))
                assert dist > 1e-6 * diam

    def test_sign_law(self):
        for kind, seed in (("acute", 5), ("obtuse", 6)):
            p = op.sample_params(5, kind, seed)
            s = op.construct(p.bary, 1.0)
            v = s.vertices
            pos_vertex = int(np.argmax(p.bary))
            for i in range(s.n):
                prods = [
                    float((v[j] - v[i]) @ (v[k] - v[i]))
                    for j, k in combinations([t for t in range(s.n) if t != i], 2)
                ]
                if kind == "acute" or i != pos_vertex:
                    assert all(t > 0 for t in prods), f"vertex {i} should be strongly acute"
                else:
                    assert all(t < 0 for t in prods), "positive vertex should be strongly obtuse"

    @pytest.mark.parametrize("k_size", [3, 4, 5])
    def test_faces_remain_orthocentric(self, k_size):
        p = op.sample_params(5, "acute", 21)
        s = op.construct(p.bary, 1.0)
        for idx in list(combinations(range(s.n), k_size))[:6]:
            assert op.is_orthocentric(sx.face(s, idx))


def mixed_tuples(d, count=6):
    """Acute and obtuse ``sample_params`` tuples of dimension d, interleaved."""
    return np.array([op.sample_params(d, ("acute", "obtuse")[i % 2], i).bary
                     for i in range(count)])


def construct_rows(bary, scale):
    """``construct`` on each row of ``bary``: one barycentric test, one pose
    and one degeneracy decision for the stack."""
    return sx._from_vertex_rows(bary.shape[-1] - 1, oc._pose_rows(bary, scale, op.DEFAULT_POLICY),
                                op.DEFAULT_POLICY)


class TestConstructRows:
    """One stacked pose for a block of tuples, each row the simplex its own
    ``construct`` builds."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_rows_are_construct_bit_for_bit(self, d):
        bary = mixed_tuples(d)
        for scale in (1.0, 2.5e-3):
            rows = construct_rows(bary.copy(), scale)
            assert rows.dim == d and rows.vertices.shape == (len(bary), d + 1, d)
            for a, v in zip(bary, rows.vertices):
                want = op.construct(a, scale).vertices
                assert np.array_equal(v, want)
                assert v.tolist() == want.tolist() and repr(v) == repr(want)

    @pytest.mark.parametrize("fault, message", [
        (lambda a: np.full_like(a, np.nan), "must be finite"),
        (lambda a: np.where(a == a.max(), np.inf, a), "must be finite"),
        (lambda a: a * 1.5, "must sum to 1"),
        (lambda a: np.array([0.6, 0.6] + [-0.2 / (a.size - 2)] * (a.size - 2)), "positive coordinates"),
        (lambda a: np.array([1.0 - 5e-10] + [5e-10 / (a.size - 1)] * (a.size - 1)), "subset sum"),
    ])
    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_first_bad_row_raises_its_construct_error(self, fault, message, j):
        bary = mixed_tuples(4)
        bary[j] = fault(bary[j])
        bary[5] = bary[5] * 3.0  # a later row fails too, another way
        with pytest.raises(ParametrizationError, match=message) as one_err:
            op.construct(bary[j])
        with pytest.raises(ParametrizationError) as block_err:
            construct_rows(bary, 1.0)
        assert str(block_err.value) == str(one_err.value)

    def test_params_rows_read_what_params_of_reads(self):
        """The stacked parameter table gives each simplex the obtuseness,
        class, corner and barycentrics ``params_of`` gives it alone."""
        d = 5
        block = sx._stack([construct_rows(mixed_tuples(d), 1.0),
                           op.rectangular(op.RectSpec(d, (0.7, 1.1, 1.3, 0.9, 1.6))),
                           op.regular(d, 1.0)])
        sigma, rectangular, corner, bary = oc._param_rows(block, op.DEFAULT_POLICY)
        for r, v in enumerate(block.vertices):
            p = op.params_of(op.from_vertices(d, v))
            assert bool(rectangular[r]) is p.rectangular
            if p.rectangular:
                assert corner[r] == p.rect_vertex
            else:
                assert sigma[r] == p.obtuseness and np.array_equal(bary[r], p.bary)

    def test_params_rows_raise_for_a_simplex_that_is_not_orthocentric(self):
        gaussian = op.from_vertices(4, np.random.default_rng(3).normal(size=(5, 4)))
        rows = construct_rows(mixed_tuples(4), 1.0)
        block = sx._stack([rows, gaussian], [0, 1, 6, 2, 3, 4, 5])  # the Gaussian at row 2
        with pytest.raises(NotOrthocentricError) as one_err:
            op.params_of(op.from_vertices(4, block.vertices[2]))
        with pytest.raises(NotOrthocentricError) as block_err:
            oc._param_rows(block, op.DEFAULT_POLICY)
        assert str(block_err.value) == str(one_err.value)
