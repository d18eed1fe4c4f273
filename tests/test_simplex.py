import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoplex as op
from orthoplex import DegenerateSimplexError, InputError, NumericError
from orthoplex import centers, cli, families, numerics
from orthoplex import orthocentric as oc
from orthoplex import simplex as sx
from orthoplex import verify as vf
from conftest import count_inverses, random_rotation


def right_corner(*legs):
    return op.rectangular(op.RectSpec(len(legs), tuple(float(b) for b in legs)))


def hull_thickness(pts):
    """min h_i / diam of the points ``pts`` (m, d), h_i the distance from
    point i to the affine hull of the others by a least-squares projection:
    a reference that shares no code with the frame."""
    h = [np.linalg.norm(p - sx.project_to_affine_hull(p, np.delete(pts, i, axis=0)))
         for i, p in enumerate(pts)]
    return min(h) / np.linalg.norm(pts[:, None] - pts, axis=-1).max()


class TestFromVertices:
    def test_unit_corner_valid(self):
        s = op.from_vertices(3, np.vstack([np.eye(3), np.zeros(3)]))
        assert s.dim == 3 and s.n == 4

    def test_collinear_degenerate(self):
        """An exactly singular edge matrix has relative thickness 0."""
        with pytest.raises(DegenerateSimplexError) as err:
            op.from_vertices(2, [[0, 0], [1, 1], [2, 2]])
        assert err.value.thickness == 0.0

    def test_wrong_cardinality_and_nan(self):
        with pytest.raises(InputError):
            op.from_vertices(2, [[0, 0], [1, 0]])
        with pytest.raises(InputError):
            op.from_vertices(2, [[0, 0], [1, 0], [np.inf, 1]])
        with pytest.raises(InputError, match="not a numeric array"):
            op.from_vertices(2, [[0, 0], [1, 0], ["a", 1]])

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

    def test_one_inverse_and_no_eigensolve(self, monkeypatch):
        """The decision reads the frame it builds: one inverse, kept for the
        analysis, and no eigensolve."""
        calls = count_inverses(monkeypatch)
        s = op.from_vertices(4, np.random.default_rng(8).normal(size=(5, 4)))
        assert s.dim == 4 and calls == [(4, 4)]
        sx.facet_volumes(s), centers.circumcenter(s)
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1, 0], [2, 0]],  # collinear
        [[0, 0], [1, 0], [1, 0]],  # two equal vertices
        [[3, 1], [3, 1], [3, 1]],  # all equal
    ])
    def test_singular_edge_matrix_is_degenerate(self, vertices):
        """LAPACK's zero pivot is the degenerate verdict, with no LinAlgError,
        NumericError or RuntimeWarning (warnings are errors here)."""
        with pytest.raises(DegenerateSimplexError, match="relative thickness 0.000e"):
            op.from_vertices(2, vertices)

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


    @pytest.mark.parametrize("d", [30, 171, 200])
    def test_out_of_range_is_finite_without_warning(self, d):
        """Regular d = 30 at edge 1e12 overflows (about 6e323), d >= 171 at
        edge 1 underflows and d! is no float; with warnings as errors."""
        s = op.regular(d, 1e12 if d == 30 else 1.0)
        assert op.volume(s) == (sx._FLOAT_MAX if d == 30 else 0.0)
        assert np.isfinite(sx.facet_volumes(s)).all()

    def test_large_determinant_in_range(self):
        """|det e| = 1e400 overflows a float; the volume 1e400/100! does not.
        Its error is that of slogdet's sum of 100 logs (1.3e-12 here)."""
        s = op.from_vertices(100, np.eye(101, 100) * 1e4)
        want = float(Fraction(10**400, math.factorial(100)))
        assert op.volume(s) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("d", [2, 5, 9, 17])
    def test_in_range_bits_are_the_determinant(self, d):
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        want = float(abs(np.linalg.det(sx._frame(s)[1]))) / math.factorial(d)
        assert op.volume(s) == want

    @pytest.mark.parametrize("k", [1, 7])
    def test_one_quotient_call_per_stack(self, monkeypatch, k):
        """The out-of-range rule runs once over the whole stack, not per row."""
        calls = []
        quotient = sx._factorial_quotient
        monkeypatch.setattr(sx, "_factorial_quotient",
                            lambda *args: calls.append(args) or quotient(*args))
        rng = np.random.default_rng(k)
        stack = sx._stack([op.from_vertices(4, rng.normal(size=(5, 4))) for _ in range(k)])
        assert np.shape(sx.volume(stack)) == (k,) and len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_stack_mixing_ranges_keeps_each_row(self):
        """d = 30 Gaussian simplices at scales 1 (in range), 1e10 (|det e|
        overflows, the volume does not), 1e11 (overflows) and 1e-11
        (underflows), stacked twice over: each row has the bits of its
        simplex alone."""
        rng = np.random.default_rng(30)
        parts = [op.from_vertices(30, scale * rng.normal(size=(31, 30)))
                 for _ in range(2) for scale in (1.0, 1e10, 1e11, 1e-11)]
        got = sx.volume(sx._stack(parts))
        want = [op.volume(s) for s in parts]
        assert got.tobytes() == np.array(want).tobytes()
        log_det = np.linalg.slogdet(sx._frame(parts[1])[1])[1]
        assert log_det > math.log(sx._FLOAT_MAX) > math.log(want[1])
        assert 0.0 < want[0] and want[2] == sx._FLOAT_MAX and want[3] == 0.0


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
        with pytest.raises(DegenerateSimplexError, match="affinely dependent"):
            op.face(s, (0, 1, 2), op.TolerancePolicy(rank_cut=0.99))

    @pytest.mark.parametrize("index_set", [(0, 1), (0, 2, 3), (0, 1, 2, 3), (1, 2, 3, 4, 5)])
    def test_one_eigensolve_per_face(self, monkeypatch, index_set):
        """The name is kept from the eigenvalue rule.  The one factorisation
        is now the frame's inverse, which ``from_vertices`` decides the face
        by, and any eigensolve fails the test; a face is embedded by a QR."""
        rng = np.random.default_rng(3)
        s = op.from_vertices(5, rng.normal(size=(6, 5)))
        calls = count_inverses(monkeypatch)
        f = op.face(s, index_set)
        assert calls == [(len(index_set) - 1,) * 2]
        assert f.dim == len(index_set) - 1 and not f.vertices.flags.writeable
        want = np.linalg.norm(s.vertices[index_set[0]] - s.vertices[index_set[-1]])
        assert np.linalg.norm(f.vertices[0] - f.vertices[-1]) == pytest.approx(want, rel=1e-12)

    def test_thin_faces_pass_from_vertices(self):
        """``from_vertices`` makes the one degeneracy decision: with rank_cut
        within a factor 10^0.2 of a face's own squared relative thickness,
        every face returned is a valid simplex of its dimension, and both
        outcomes occur."""
        rng = np.random.default_rng(0)
        returned = rejected = 0
        for _ in range(200):
            d = int(rng.integers(3, 9))
            k = int(rng.integers(2, d + 1))
            s = op.from_vertices(d, rng.normal(size=(d + 1, d)) * 10 ** rng.uniform(-3, 3))
            idx = tuple(rng.permutation(d + 1)[: k + 1].tolist())
            t = hull_thickness(s.vertices[list(idx)])
            cut = min(0.9, t * t * 10 ** rng.uniform(-0.2, 0.2))
            pol = op.TolerancePolicy(rank_cut=cut)
            try:
                f = op.face(s, idx, pol)
            except DegenerateSimplexError:
                rejected += 1
                continue
            returned += 1
            op.from_vertices(f.dim, f.vertices, pol)
        assert returned > 50 and rejected > 50

    @pytest.mark.parametrize("d", [*range(3, 17), 24, 32, 48, 64])
    def test_squared_edges_match_the_parent(self, d):
        """A face keeps its parent's squared-edge table within 1e-14 of the
        largest entry: facets and every-other-vertex faces of Gaussian
        (offset by 5), acute, obtuse, rectangular and regular simplices."""
        rng = np.random.default_rng(d)
        fixtures = [
            op.from_vertices(d, rng.normal(size=(d + 1, d)) + 5.0),
            op.construct(op.sample_params(d, "acute", d).bary, 1.0),
            op.construct(op.sample_params(d, "obtuse", d).bary, 1.0),
            right_corner(*np.linspace(0.5, 2.0, d)),
            op.regular(d, 1.0),
        ]
        for s in fixtures:
            for idx in (tuple(range(d)), tuple(range(1, d + 1)), tuple(range(0, d + 1, 2))):
                want = sx.squared_edge_table(s)[np.ix_(idx, idx)]
                got = sx.squared_edge_table(op.face(s, idx))
                assert np.abs(got - want).max() <= 1e-14 * want.max(), (s, idx)

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


def flag_fixtures(d):
    rng = np.random.default_rng(100 + d)
    yield "gaussian", rng.normal(size=(d + 1, d))
    yield "regular", op.regular(d, 1.0).vertices
    for kind in ("acute", "obtuse"):
        yield kind, op.construct(op.sample_params(d, kind, d).bary, 1.0).vertices


class TestShapeFlagsScaleFree:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_flags_invariant_under_scaling_and_permutation(self, d):
        rng = np.random.default_rng(d)
        for name, v in flag_fixtures(d):
            want = op.shape_predicates(op.from_vertices(d, v))
            for scale in (1e-6, 1e6):
                assert op.shape_predicates(op.from_vertices(d, v * scale)) == want, (name, scale)
            perm = rng.permutation(d + 1)
            assert op.shape_predicates(op.from_vertices(d, v[perm])) == want, (name, "perm")

    def test_gaussian_40_simplex_not_equiareal(self):
        """Its facet volumes are near 4e-23: under an absolute floor of 1e-12
        they all read as equal."""
        s = op.from_vertices(40, np.random.default_rng(0).normal(size=(41, 40)))
        assert not op.shape_predicates(s).is_equiareal

    def test_gaussian_6_simplex_keeps_its_flags_when_small(self):
        v = np.random.default_rng(0).normal(size=(7, 6))
        for scale in (1.0, 1e-2, 1e-4, 1e-8):
            flags = op.shape_predicates(op.from_vertices(6, v * scale))
            assert not flags.is_equiareal and not flags.is_regular, scale


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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_sq_edge_sums_per_simplex_of_a_stack(self, d):
        """On a stack each row is the sum of its own simplex, bit for bit."""
        block = fill_block(d, 1.0)
        rows = sx.facet_sq_edge_sums(sx._stack(block))
        assert rows.shape == (len(block), d + 1)
        for s, row in zip(block, rows):
            assert row.tobytes() == sx.facet_sq_edge_sums(s).tobytes()

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
    centers._reach,
    centers._monge_gram,
    centers._facet_sphere,
    centers._mid_face_spheres,
    centers._center_distances,
]


def fill_block(d, scale):
    """Same-dimension simplices of every kind the verify blocks hold:
    Gaussian, acute, obtuse, rectangular, regular and (d >= 3) kite."""
    rng = np.random.default_rng(d)
    block = [op.from_vertices(d, scale * rng.normal(size=(d + 1, d))) for _ in range(3)]
    block += [op.construct(op.sample_params(d, kind, d).bary, scale)
              for kind in ("acute", "obtuse")]
    block.append(op.rectangular(op.RectSpec(d, tuple(scale * rng.uniform(0.5, 2.0, size=d)))))
    block.append(op.regular(d, scale))
    if d >= 3:
        block.append(op.kite(op.KiteSpec(d, scale, 1.3 * scale)))
    return block


def row_of(table, r):
    """Row r of a table computed on a stack, as a direct call stores it: a
    read-only view of each array field, each per-simplex number (a field
    with one axis) as a Python number."""
    if isinstance(table, tuple):
        return tuple(row_of(field, r) for field in table)
    return table.tolist()[r] if table.ndim == 1 else table[r]


def same_memo(s, memo):
    """``s`` holds the tables of ``memo``, each the same object, and no other."""
    return s._memo.keys() == memo.keys() and all(s._memo[k] is v for k, v in memo.items())


def same_stored(want, got):
    """Equal types and bytes, arrays read-only, tuple by tuple."""
    if isinstance(want, tuple):
        return type(got) is tuple and len(got) == len(want) and all(map(same_stored, want, got))
    if isinstance(want, np.ndarray):
        return (type(got) is np.ndarray and got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes() and not got.flags.writeable)
    return type(got) is type(want) and got == want


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

    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_fill_stores_what_a_direct_call_stores(self, d, scale):
        """Row r of every table on the stack of a block holds the types and
        bytes the table stores on simplex r of the block alone."""
        block = fill_block(d, scale)
        stack = sx._stack(block)
        for fn in PER_SIMPLEX:
            table = fn(stack)
            for r, s in enumerate(block):
                assert same_stored(fn(s), row_of(table, r)), (fn.__name__, r)

    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_fill_of_the_shared_regular_simplex_keeps_the_direct_bits(self, d):
        """``regular`` builds every simplex from one shared coordinate array;
        stacking a block that holds one with a table stored leaves its memo
        as it was, and its row of every table on the stack has the bits a
        fresh simplex of its coordinates computes on its own."""
        families._regular.cache_clear()
        shared = op.regular(d, 1.0)
        centers.circumcenter(shared)
        memo = dict(shared._memo)
        block = fill_block(d, 1.0)
        bits = shared.vertices.tobytes()
        at = next(r for r, s in enumerate(block) if s.vertices.tobytes() == bits)
        block[at] = shared
        stack = sx._stack(block)
        fresh = op.from_vertices(d, shared.vertices)
        for fn in PER_SIMPLEX:
            assert same_stored(fn(fresh), row_of(fn(stack), at)), fn.__name__
        assert same_memo(shared, memo)

    def test_fill_runs_each_table_once_and_keeps_what_is_stored(self, monkeypatch):
        """A table read from a stack runs once for the whole block, and
        stacking reads and writes no part's memo."""
        block = fill_block(5, 1.0)
        kept = centers.circumcenter(block[2])
        memos = [dict(s._memo) for s in block]
        builds = []

        def building(s, _build=sx._frame.__wrapped__):
            builds.append(s.vertices.shape)
            return _build(s)

        monkeypatch.setattr(sx, "_frame", sx._per_simplex(building))
        stack = sx._stack(block)
        centers.circumcenter(stack)
        sx.facet_volumes(stack)
        assert builds == [(len(block), 6, 5)]
        assert centers.circumcenter(block[2]) is kept
        assert all(same_memo(s, memo) for s, memo in zip(block, memos))

    def test_stack_joins_simplices_and_stacks_in_order(self):
        """Parts are simplices and stacks of one dimension; ``rows`` picks
        and orders rows of the joined stack, which is a read-only copy."""
        block = fill_block(4, 1.0)
        part = sx._stack(block[2:5])
        joined = sx._stack([block[0], block[1], part, *block[5:]])
        want = np.stack([s.vertices for s in block])
        assert joined.dim == 4 and np.array_equal(joined.vertices, want)
        assert not joined.vertices.flags.writeable and joined.vertices.flags.c_contiguous
        assert not np.shares_memory(part.vertices, joined.vertices)
        rows = [5, 0, 3, 3]
        picked = sx._stack([block[0], block[1], part, *block[5:]], rows)
        assert np.array_equal(picked.vertices, want[rows]) and not picked.vertices.flags.writeable
        assert picked._memo == {}

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


def old_face_rows(n):
    """The k-faces for k = 0..n-2 in ``combinations`` order, grouped by k:
    what the Euler oracle enumerated for each k."""
    return [f for m in range(1, n) for f in combinations(range(n), m)]


def old_pairs(n):
    """The vertex pairs i < j in ``combinations`` order."""
    return list(combinations(range(n), 2))


#: each table built once per vertex count n, with the per-simplex (or per-k)
#: construction it replaces
INDEX_TABLES = {
    "pair_index": (
        sx._pair_index,
        lambda n: np.nonzero(np.arange(n)[:, None] < np.arange(n)),
    ),
    "pair_slots": (
        sx._pair_slots,
        lambda n: np.array([[0 if a == b else 1 + old_pairs(n).index((min(a, b), max(a, b)))
                             for b in range(n)] for a in range(n)], dtype=np.intp),
    ),
    "facet_table": (
        sx._facet_table,
        lambda n: np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None]),
    ),
    "pose_mask": (oc._pose_mask, lambda n: np.tri(n, n - 1, -1, dtype=bool)),
    "face_table": (
        vf._face_table,
        lambda n: (
            np.array([[1.0 / len(f) if i in f else 0.0 for i in range(n)]
                      for f in old_face_rows(n)]),
            np.array([len(f) - 1 for f in old_face_rows(n)]),
            np.array([old_face_rows(n).index(f) for f in
                      (tuple(range(m)) for m in range(1, n))]),
        ),
    ),
}

#: how a simplex reaches each table
FROM_SIMPLEX = {
    "pair_index": lambda s: sx._pair_index(s.n),
    "facet_indices": sx.facet_indices,
    "pose_mask": lambda s: oc._pose_mask(s.n),
    "face_table": lambda s: vf._face_table(s.n),
}


class TestIndexTables:
    @pytest.mark.parametrize("name", INDEX_TABLES)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_the_construction_it_replaces(self, name, n):
        cached, old = INDEX_TABLES[name]
        got, want = cached(n), old(n)
        got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("name", FROM_SIMPLEX)
    def test_shared_and_read_only(self, name):
        rng = np.random.default_rng(11)
        s, t = (op.from_vertices(5, rng.normal(size=(6, 5))) for _ in range(2))
        first, second = (FROM_SIMPLEX[name](x) for x in (s, t))
        first, second = (x if isinstance(x, tuple) else (x,) for x in (first, second))
        assert len(first) == len(second)
        for table, other in zip(first, second):
            assert table is other
            with pytest.raises(ValueError):
                table.flat[0] = table.flat[0]

    @pytest.mark.parametrize("name", INDEX_TABLES)
    def test_cache_is_bounded(self, name):
        assert INDEX_TABLES[name][0].cache_info().maxsize is not None

    @pytest.mark.parametrize("n", range(3, 13))
    def test_monge_gram_reads_the_off_diagonal_entries_in_row_order(self, n):
        """sigma and the spread of ``centers._monge_gram``, read from a strided
        view of the Gram matrix, equal the bits of a gather of the
        off-diagonal entries in row order, on one simplex and on a stack."""
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(4, n, n - 1))
        stack = sx._from_vertex_rows(n - 1, rows, op.DEFAULT_POLICY)
        for s in (op.from_vertices(n - 1, rows[0]), stack):
            _, gram, sigma, spread = centers._monge_gram(s)
            off = gram.reshape(gram.shape[:-2] + (-1,)).take(
                np.flatnonzero(~np.eye(n, dtype=bool)), axis=-1)
            want = off.sum(axis=-1) / off.shape[-1]
            assert np.array_equal(sigma, want)
            assert np.array_equal(spread, np.abs(off - np.asarray(want)[..., None]).max(axis=-1))


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


def one_by_one(d, stack):
    """(degenerate, thickness or None, vertices or None) of ``from_vertices``
    on each simplex of ``stack``, called one at a time."""
    out = []
    for verts in stack:
        try:
            s = op.from_vertices(d, verts)
        except DegenerateSimplexError as exc:
            out.append((True, exc.thickness, None))
        else:
            out.append((False, None, s.vertices))
    return out


def frame_thickness(s):
    """min h_i / diam of a simplex, read from its frame."""
    return 1.0 / (sx._frame(s)[3].max() * sx.diameter(s))


def squashed(d, seed, factors):
    """One Gaussian d-simplex under a similarity, both drawn from ``seed``,
    its last axis squashed by each of ``factors`` before the rotation."""
    rng = np.random.default_rng(seed)
    base, q, shift = rng.normal(size=(d + 1, d)), random_rotation(d, rng), rng.normal(size=d)
    return np.array([(base * np.append(np.ones(d - 1), f)) @ q + shift for f in factors])


def near_cut_block(d, seed, policy):
    """Simplices of relative thickness sqrt(rank_cut) 10^u, u from -0.2 to
    0.2: squashing one axis by f makes t linear in f to O(f^2), and
    rounding puts some on each side of the cut."""
    probe = 1e-3
    t = frame_thickness(op.from_vertices(d, squashed(d, seed, [probe])[0]))
    return squashed(d, seed, probe * np.sqrt(policy.rank_cut) / t
                    * 10.0 ** np.linspace(-0.2, 0.2, 41))


class TestDegeneracyBlock:
    """The one degeneracy rule over a stack decides each simplex exactly as
    ``from_vertices`` does alone."""

    def agree(self, d, stack, policy):
        kept = sx._from_vertex_rows(d, stack.copy(), policy, drop_from=0)
        want = one_by_one(d, stack)
        good = [v for bad, _, v in want if not bad]
        assert kept.dim == d and kept.vertices.shape == (len(good), d + 1, d)
        assert not kept.vertices.flags.writeable and kept.vertices.flags.c_contiguous
        for got, v in zip(kept.vertices, good):
            assert np.array_equal(got, v)
        return [bad for bad, _, _ in want]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_random_input(self, d, policy):
        rng = np.random.default_rng(d)
        stack = rng.normal(size=(25, d + 1, d)) * np.exp(rng.uniform(-20, 20, size=(25, 1, 1)))
        stack[3, 1] = stack[3, 0]  # two equal vertices
        assert self.agree(d, stack, policy)[3]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_ratios_near_the_cut(self, d, policy):
        degenerate = self.agree(d, near_cut_block(d, 10 + d, policy), policy)
        assert any(degenerate) and not all(degenerate)

    def test_all_equal_vertices(self, policy):
        stack = np.random.default_rng(1).normal(size=(4, 4, 3))
        stack[2] = 7.5  # every edge is 0
        assert self.agree(3, stack, policy) == [False, False, True, False]
        with pytest.raises(DegenerateSimplexError) as block_err:
            sx._from_vertex_rows(3, stack, policy)
        with pytest.raises(DegenerateSimplexError) as one_err:
            op.from_vertices(3, stack[2])
        assert str(block_err.value) == str(one_err.value)
        assert block_err.value.thickness == one_err.value.thickness == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_a_degenerate_row_raises_from_one_eigensolve(self, d, policy, monkeypatch):
        """The stack raises from the thickness it already has, with the
        message and thickness ``from_vertices`` gives that row alone.  The
        name is kept from the eigenvalue rule: the one factorisation is now
        the frame's inverse, and any eigensolve fails the test."""
        stack = near_cut_block(d, 10 + d, policy)
        first = [bad for bad, _, _ in one_by_one(d, stack)].index(True)
        with pytest.raises(DegenerateSimplexError) as one_err:
            op.from_vertices(d, stack[first])
        calls = count_inverses(monkeypatch)
        with pytest.raises(DegenerateSimplexError) as block_err:
            sx._from_vertex_rows(d, stack, policy)
        assert calls == [stack.shape[:1] + (d, d)]
        assert str(block_err.value) == str(one_err.value)
        assert block_err.value.thickness == one_err.value.thickness

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_exactly_singular_row(self, d, at, policy, monkeypatch):
        """A zero pivot in the stacked LU inverts the stack row by row: the
        singular row is dropped past ``drop_from`` and raises before it;
        the other rows keep their bits, and no LinAlgError, NumericError or
        RuntimeWarning escapes."""
        stack = np.random.default_rng(d).normal(size=(5, d + 1, d))
        stack[at, :, 0] = 0.0  # a zero column in every edge matrix of row ``at``
        calls = count_inverses(monkeypatch)
        kept = sx._from_vertex_rows(d, stack, policy, drop_from=at)
        # the stack, its rows one by one, then the kept stack's own frame
        assert calls == [(5, d, d)] + [(d, d)] * 5 + [(4, d, d)]
        assert np.array_equal(kept.vertices, np.delete(stack, at, axis=0))
        assert np.isfinite(sx._frame(kept)[2]).all()
        for r, v in enumerate(np.delete(stack, at, axis=0)):
            assert np.array_equal(sx._frame(kept)[2][r], sx._frame(op.from_vertices(d, v))[2])
        with pytest.raises(DegenerateSimplexError, match="thickness 0.000e") as err:
            sx._from_vertex_rows(d, stack, policy, drop_from=at + 1)
        assert err.value.thickness == 0.0

    @pytest.mark.parametrize("bad, message", [
        (np.inf, "must be finite"),
        (-np.inf, "must be finite"),
        (np.nan, "must be finite"),
        (1e200, "too large"),
    ])
    def test_non_finite_and_overflowing_coordinates(self, bad, message, policy):
        stack = np.random.default_rng(2).normal(size=(3, 4, 3))
        stack[1, 2, 0] = bad
        if bad == np.inf:
            stack[1, 3, 0] = bad  # inf - inf in an edge
        with pytest.raises(InputError, match=message) as one_err:
            op.from_vertices(3, stack[1])
        for drop_from in (None, 0):
            with pytest.raises(InputError) as block_err:
                sx._from_vertex_rows(3, stack, policy, drop_from)
            assert type(block_err.value) is type(one_err.value)
            assert str(block_err.value) == str(one_err.value)


class TestPairRowSlices:
    """The pair table of one simplex or of a stack is formed in slices of
    pairs, taken simplex by simplex (a slice may split one simplex's pairs
    or join several simplices'), each pair with the bits of the whole-table
    product."""

    @pytest.mark.parametrize("d", [2, 5, 9])
    @pytest.mark.parametrize("pairs", [0, 1, 7, 49])
    def test_slices_keep_the_bits(self, monkeypatch, d, pairs):
        rng = np.random.default_rng(d)
        stack, one = rng.normal(size=(50, d + 1, d)), rng.normal(size=(d + 1, d))
        for points, s in ((stack, sx._from_vertex_rows(d, stack, op.DEFAULT_POLICY)),
                          (one, op.from_vertices(d, one))):
            monkeypatch.undo()
            whole = sx._pair_rows(points)
            monkeypatch.setattr(sx, "_SLICE_VALUES", pairs * d)  # `pairs` pairs a slice
            sliced = sx._pair_rows(points)
            assert sliced.shape == whole.shape and sliced.tobytes() == whole.tobytes()
            assert sx._pairs(s).tobytes() == whole.tobytes()

    def test_one_simplex_analysis_memory_at_d400(self):
        """One simplex's analysis holds O(d^2) values: its pair table is
        sliced, where the whole table of differences is C(401, 2) x 400
        floats, 257 MB."""
        s = op.construct(op.sample_params(400, "acute", 1).bary, 1.0)
        tracemalloc.start()
        try:
            doc = cli.analysis_doc(s, op.DEFAULT_POLICY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc["orthocentric"] and doc["ortho_params"]["class"] == "acute"
        assert peak < 32e6


class TestScaleDomain:
    """A simplex with a squared edge length or a squared altitude outside
    [1e-280, 1e280] raises InputError naming that range: outside it a
    squared length, a squared-edge sum or 1/h^2 for an altitude h leaves
    the normal floats.  Degenerate simplices are judged degenerate first."""

    @pytest.mark.parametrize("scale", [1e-141, 1e-150, 1e-156, 1e141, 1e150, 1e153])
    def test_out_of_range_scale_raises(self, scale, policy):
        stack = np.random.default_rng(3).normal(size=(4, 4, 3))
        stack[2] *= scale
        with pytest.raises(InputError, match=r"scale out of range: .* must lie within "
                                             r"\[1e-280, 1e\+280\]") as one_err:
            op.from_vertices(3, stack[2])
        for drop_from in (None, 0):
            with pytest.raises(InputError) as block_err:
                sx._from_vertex_rows(3, stack, policy, drop_from)
            assert type(block_err.value) is type(one_err.value)
            assert str(block_err.value) == str(one_err.value)

    @pytest.mark.parametrize("scale", [1e-138, 1e-100, 1e100, 1e138])
    def test_in_range_scale_builds(self, scale):
        v = np.random.default_rng(3).normal(size=(4, 3))
        s, unit = op.from_vertices(3, v * scale), op.from_vertices(3, v)
        assert frame_thickness(s) == pytest.approx(frame_thickness(unit), rel=1e-12)

    def test_degenerate_rows_are_judged_degenerate(self, policy):
        stack = np.random.default_rng(4).normal(size=(3, 4, 3))
        stack[1] = 1e-200  # every edge is 0: degenerate, not out of range
        stack[2, 1] = stack[2, 0] * (1 + 1e-300)  # two equal vertices
        kept = sx._from_vertex_rows(3, stack, policy, drop_from=0)
        assert np.array_equal(kept.vertices, stack[:1])
        for rows in (stack, stack[1:2], stack[2:]):
            with pytest.raises(DegenerateSimplexError):
                sx._from_vertex_rows(3, rows, policy)

    def test_degenerate_at_a_scale_out_of_range(self, policy):
        """A thin simplex scaled out of the domain is still degenerate."""
        thin = squashed(3, 5, [1e-7])[0]
        for scale in (1e-150, 1e150):
            with pytest.raises(DegenerateSimplexError):
                op.from_vertices(3, thin * scale)


class TestFacePoseBlock:
    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_stacked_qr_facets_are_the_faces(self, d):
        """Facets from one stacked QR have ``face``'s vertices, memory order
        and squared-edge tables, bit for bit."""
        rng = np.random.default_rng(20 + d)
        block = [op.from_vertices(d, rng.normal(size=(d + 1, d))) for _ in range(6)]
        s = sx._stack(block)
        for i in range(d + 1):
            index = sx.facet_indices(s)[i]
            poses = sx._face_pose(s.vertices[:, index])
            stack = sx._from_vertex_rows(d - 1, poses, op.DEFAULT_POLICY)
            for r, t in enumerate(block):
                f = sx.face(t, index)
                assert np.array_equal(stack.vertices[r], f.vertices)
                assert stack.vertices[r].strides == f.vertices.strides
                assert np.array_equal(sx.squared_edge_table(stack)[r], sx.squared_edge_table(f))

    @pytest.mark.parametrize("d", [8, 10])
    def test_faces_keep_their_memory_order(self, d):
        """A face's vertices are R's columns, vertex axis contiguous, as
        when ``face`` stacked them with ``np.vstack``: sums over the
        vertices (the centroid, so the Monge point) keep their bits, in a
        stack of facets too."""
        rng = np.random.default_rng(d)
        block = [op.from_vertices(d, rng.normal(size=(d + 1, d))) for _ in range(3)]
        index = sx.facet_indices(block[0])[d]
        poses = sx._face_pose(sx._stack(block).vertices[:, index])
        stack = sx._from_vertex_rows(d - 1, poses, op.DEFAULT_POLICY)
        for r, t in enumerate(block):
            pts = t.vertices[list(index)]
            rr = np.linalg.qr((pts[1:] - pts[0]).T, mode="r")
            want = op.from_vertices(d - 1, np.vstack([np.zeros(rr.shape[1]), rr.T]))
            got = sx.face(t, index)
            assert got.vertices.strides == want.vertices.strides
            assert np.array_equal(centers.monge_point(got), centers.monge_point(want))
            assert np.array_equal(centers.monge_point(stack)[r], centers.monge_point(want))


# a 3-simplex of relative thickness 9.87e-6, just below the cut 1e-5 that
# rank_cut 1e-10 sets: the edge Gram eigenvalue ratio accepted it in 6 of
# its 24 vertex orders
THIN_3 = [[-2.582017527046, 3.44214504992, -6.210986e-06],
          [-0.053902025472, 0.511536419918, -2.0803255e-05],
          [-0.228535367478, 0.425148735332, 1.3960012e-05],
          [-1.159296726932, 0.83334259667, -2.9185611e-05]]


def wide_obtuse_pose(d):
    """The seed-31 wide obtuse tuple of dimension d (see
    ``test_gram_matches_form_on_wide_obtuse_tuples``), posed: t is 2.3e-5 at
    d = 16, 1.28e-5 at d = 31 and 6.7e-6 at d = 64."""
    rng = np.random.default_rng(31)
    for k in (3, 6, 9, 16, 31, 64):
        a = np.append(-rng.uniform(100.0, 1000.0, size=k), 0.0)
        a[0] = -0.05
        a[-1] = 1.0 - a.sum()
        if k == d:
            return oc._pose_rows(a, 1.0, op.DEFAULT_POLICY)


def similar(v, seed):
    """``v`` under a seeded rotation, scale and translation."""
    rng = np.random.default_rng(seed)
    d = v.shape[1]
    return v @ random_rotation(d, rng) * rng.uniform(0.01, 100.0) + rng.normal(size=d)


class TestFrameRule:
    """The degeneracy rule reads the frame's altitudes: one inverse per
    decided stack and no eigensolve in any build, and the same verdict in
    every vertex order and under similarity."""

    @staticmethod
    def verdicts(d, rows):
        """The verdict on each of ``rows``, alone and as one stack."""
        alone = [bad for bad, _, _ in one_by_one(d, rows)]
        kept = sx._from_vertex_rows(d, np.array(rows), op.DEFAULT_POLICY, drop_from=0)
        assert len(kept.vertices) == alone.count(False)
        return alone

    def test_thin_simplex_in_every_vertex_order(self):
        v = np.array(THIN_3)
        rows = [v[list(p)] for p in permutations(range(4))]
        rows += [similar(r, seed) for seed, r in enumerate(rows)]
        assert self.verdicts(3, rows) == [True] * 48

    @pytest.mark.parametrize("d, refused", [(16, False), (31, False), (64, True)])
    def test_wide_tuples_in_any_order(self, d, refused):
        v = wide_obtuse_pose(d)
        rng = np.random.default_rng(d)
        rows = [v, v[::-1]] + [v[rng.permutation(d + 1)] for _ in range(10)]
        rows += [similar(r, seed) for seed, r in enumerate(rows)]
        assert self.verdicts(d, rows) == [refused] * 24

    def test_gaussian_stack_in_any_order(self):
        """40 Gaussian 6-simplices, 8 of them squashed to about the cut."""
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(40, 7, 6))
        stack[::5, :, -1] *= 10.0 ** rng.uniform(-6.5, -4.5, size=(8, 1))
        want = self.verdicts(6, stack)
        assert any(want) and not all(want)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(7)
            assert self.verdicts(6, stack[:, order]) == want
            assert self.verdicts(6, [similar(v, seed) for v in stack]) == want

    @pytest.mark.parametrize("d", [400, 700, 1000])
    def test_thick_gaussian_simplices_accepted_at_large_d(self, d):
        """The eigenvalue ratio falls like cond(E)^2 and would refuse about
        half of these near d = 1000; their t is about 3e-3."""
        s = op.from_vertices(d, np.random.default_rng(d).normal(size=(d + 1, d)))
        assert frame_thickness(s) > 1e-3

    @pytest.mark.parametrize("name", ["from_vertices", "construct", "face", "regular", "kite",
                                      "rectangular", "equiradial_general",
                                      "lift_to_rectangular", "orthocentric_system_check"])
    def test_one_inverse_per_build(self, monkeypatch, name):
        s = op.construct(op.sample_params(5, "acute", 2).bary, 1.0)
        pts = np.vstack([s.vertices, op.monge_point(s)])
        build, shape = {
            "from_vertices": (lambda: op.from_vertices(5, s.vertices), (5, 5)),
            "construct": (lambda: op.construct(op.sample_params(5, "obtuse", 1).bary), (5, 5)),
            "face": (lambda: op.face(s, (0, 2, 3, 5)), (3, 3)),
            "regular": (lambda: op.regular(6, 1.5), (6, 6)),
            "kite": (lambda: op.kite(op.equiradial_kite(6)), (6, 6)),
            "rectangular": (lambda: op.rectangular(op.RectSpec(4, (1.0, 2.0, 0.5, 3.0))), (4, 4)),
            "equiradial_general": (lambda: op.equiradial_general(9, 2, 1), (9, 9)),
            "lift_to_rectangular": (lambda: op.lift_to_rectangular(s), (6, 6)),
            "orthocentric_system_check": (lambda: op.orthocentric_system_check(pts), (7, 5, 5)),
        }[name]
        calls = count_inverses(monkeypatch)
        build()
        assert calls == [shape]
