import decimal
import gc
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import orthoplex as op
from orthoplex import (
    AdmissibilityError,
    DegenerateKiteError,
    InputError,
    NotLiftableError,
    NumericError,
    TolerancePolicy,
)
from orthoplex import cli
from orthoplex import families as fam
from orthoplex import simplex as sx


def facet_circumradii(s):
    return np.array(
        [op.circumcenter(sx.face(s, sx.facet_indices(s)[i]))[1] for i in range(s.n)]
    )


class TestRegular:
    def test_closed_forms_d3(self):
        m = op.regular_metrics(3, 1.0)
        assert m.circumradius**2 == pytest.approx(0.375, rel=1e-12)
        assert m.altitude == pytest.approx(0.816496580927726, rel=1e-9)
        assert m.volume == pytest.approx(0.1178511301977579, rel=1e-9)
        assert m.inradius == pytest.approx(0.2041241452319315, rel=1e-9)

    def test_closed_forms_d2(self):
        m = op.regular_metrics(2, 1.0)
        assert m.circumradius == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        assert m.inradius == pytest.approx(1 / math.sqrt(12), rel=1e-12)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_circum_to_inradius_ratio_is_d(self, d):
        m = op.regular_metrics(d, 1.3)
        assert m.circumradius / m.inradius == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_constructed_matches_closed_forms(self, d):
        s = op.regular(d, 1.0)
        m = op.regular_metrics(d, 1.0)
        assert np.allclose(sx.edge_lengths(s), 1.0, rtol=1e-12)
        _, big_r = op.circumcenter(s)
        _, small_r = op.incenter(s)
        assert big_r == pytest.approx(m.circumradius, rel=1e-9)
        assert small_r == pytest.approx(m.inradius, rel=1e-9)
        assert sx.volume(s) == pytest.approx(m.volume, rel=1e-9)


class TestKite:
    def test_regular_special_case(self):
        spec = op.KiteSpec(3, 1.0, 1.0)
        m = op.kite_metrics(spec)
        assert m.altitude == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert m.circumradius**2 == pytest.approx(3 / 8, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 6])
    @pytest.mark.parametrize("s", [1.0, 2.5])
    def test_unit_eccentricity_reduces_to_regular(self, d, s):
        km = op.kite_metrics(op.KiteSpec(d, s, s))
        rm = op.regular_metrics(d, s)
        assert km.circumradius == pytest.approx(rm.circumradius, rel=1e-10)
        assert km.inradius == pytest.approx(rm.inradius, rel=1e-10)
        assert km.altitude == pytest.approx(rm.altitude, rel=1e-10)
        assert km.volume == pytest.approx(rm.volume, rel=1e-10)

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_base_circumradius_relation(self, d):
        m = op.kite_metrics(op.KiteSpec(d, 1.0, 0.9))
        assert m.base_circumradius**2 == pytest.approx((d - 1) / (2 * d), rel=1e-12)

    def test_constructed_matches_closed_forms(self):
        spec = op.KiteSpec(5, 1.0, 0.9)
        k = op.kite(spec)
        m = op.kite_metrics(spec)
        _, big_r = op.circumcenter(k)
        _, small_r = op.incenter(k)
        assert big_r == pytest.approx(m.circumradius, rel=1e-9)
        assert small_r == pytest.approx(m.inradius, rel=1e-9)
        assert sx.volume(k) == pytest.approx(m.volume, rel=1e-9)
        # apex edges all have length t, base edges s
        sq = sx.squared_edge_table(k)
        assert np.allclose(sq[5, :5], spec.t**2, rtol=1e-12)

    def test_kites_are_orthocentric(self):
        for d, t in [(3, 0.8), (4, 1.3), (6, 0.95)]:
            assert op.is_orthocentric(op.kite(op.KiteSpec(d, 1.0, t)))

    def test_large_base_edge_keeps_a_finite_circumradius(self):
        """R = s eps^2 sqrt(d / (2 core)) is about 5e304 here, where s eps^2
        alone (1e310) is no float: the small factor is taken first."""
        big = op.kite_metrics(op.KiteSpec(3, 1e300, 1e305)).circumradius
        unit = op.kite_metrics(op.KiteSpec(3, 1.0, 1e5)).circumradius
        assert big == pytest.approx(1e300 * unit, rel=1e-12)

    def test_degenerate_kite_rejected(self):
        with pytest.raises(DegenerateKiteError):
            op.KiteSpec(4, 1.0, math.sqrt(3 / 8))  # eps^2 exactly (d-1)/(2d)

    @pytest.mark.parametrize("s, t", [
        (1.0, 1e200), (1.0, 1e308), (1e-200, 1e200), (1.0, math.inf), (math.inf, 1.0),
        (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -1.0),
    ])
    def test_edges_must_be_finite_with_a_finite_squared_ratio(self, s, t):
        """Rejected as InputError, as regular_metrics rejects s, where the
        eccentricity's square used to raise OverflowError."""
        with pytest.raises(InputError, match="kite edges"):
            op.KiteSpec(3, s, t)

    def test_finite_squared_ratio_accepted(self):
        """The largest ratios whose 4 d eps^2 is finite are accepted, and every
        closed form of their metrics is a positive finite number."""
        for d, t in ((3, 1e153), (3, 3.8e153), (10, 2.1e153), (np.int64(4), 1e153)):
            m = op.kite_metrics(op.KiteSpec(d, 1.0, t))
            assert all(math.isfinite(getattr(m, name)) and getattr(m, name) > 0 for name in
                       ("circumradius", "inradius", "altitude", "volume"))

    @pytest.mark.parametrize("d, t", [(3, 1e154), (3, 5.4e153), (3, 3.9e153), (10, 2.2e153),
                                      (np.int64(4), 1e154)])
    def test_overflowing_core_rejected(self, d, t):
        """A finite eps^2 whose 4 d eps^2 overflows is rejected: kite_metrics
        would give a zero circumradius (2 (2 eps^2 d - (d-1)) overflows, as at
        t = 5.4e153), and from 2 eps^2 d on also a NaN inradius and the
        largest float as volume; kite() of these specs raises too."""
        with pytest.raises(InputError, match=r"kite edges .* 4 d \(t/s\)\^2 finite"):
            op.KiteSpec(d, 1.0, t)


class TestEquiradialKite:
    def test_d5_shape(self):
        spec = op.equiradial_kite(5)
        assert spec.t**2 == pytest.approx(0.6, rel=1e-12)
        k = op.kite(spec)
        flags = op.shape_predicates(k)
        assert flags.is_equiradial and not flags.is_regular

    def test_d5_facet_radii_agree(self):
        k = op.kite(op.equiradial_kite(5))
        radii = facet_circumradii(k)
        # both facet types give sqrt(2/5): base regular 4-simplex and
        # lateral 4-kites of eccentricity^2 = 0.6
        assert np.allclose(radii, math.sqrt(2 / 5), rtol=1e-9)
        assert np.max(radii) - np.min(radii) <= 1e-9 * np.max(radii)

    def test_d4_rectangular_at_apex(self):
        spec = op.equiradial_kite(4)
        assert spec.t**2 == pytest.approx(0.5, rel=1e-12)
        assert op.kite_metrics(spec).rectangular_at_apex
        k = op.kite(spec)
        v = k.vertices
        apex = v[-1]
        for i, j in combinations(range(4), 2):
            cosine = float((v[i] - apex) @ (v[j] - apex))
            assert cosine == pytest.approx(0.0, abs=1e-12)
        assert op.params_of(k).rectangular

    def test_d5_circumcenter_not_interior(self):
        spec = op.equiradial_kite(5)
        m = op.kite_metrics(spec)
        assert not m.circumcenter_interior  # 0.6 < 4/5
        rep = op.center_report(op.kite(spec))
        assert rep.coincident_pairs == ()

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_orthocenter_barycentrics(self, d):
        # apex coordinate 1/(d-3), base coordinates (d-4)/(d(d-3))
        p = op.params_of(op.kite(op.equiradial_kite(d)))
        assert p.bary[-1] == pytest.approx(1 / (d - 3), rel=1e-8)
        assert np.allclose(p.bary[:-1], (d - 4) / (d * (d - 3)), rtol=1e-7)

    def test_low_dimension_rejected(self):
        with pytest.raises(InputError):
            op.equiradial_kite(3)


class TestRectangular:
    def test_legs_3_4(self):
        s = op.rectangular(op.RectSpec(2, (3.0, 4.0)))
        assert sx.edge_lengths(s).max() == pytest.approx(5.0)
        h = op.orthocenter(s)
        assert np.allclose(h, s.vertices[-1], atol=1e-12)

    def test_corner_faces_rectangular_hypotenuse_not(self):
        s = op.rectangular(op.RectSpec(3, (3.0, 4.0, 5.0)))
        corner = 3
        for idx in combinations(range(4), 3):
            f = sx.face(s, idx)
            p = op.params_of(f)
            if corner in idx:
                assert p.rectangular
            else:
                assert not p.rectangular
                assert np.all(p.bary > 0)  # interior orthocenter

    def test_spec_needs_one_leg_per_dimension(self):
        with pytest.raises(InputError, match="need 3 legs, got 2"):
            op.RectSpec(3, (1.0, 2.0))

    @pytest.mark.parametrize("leg", [-1.0, math.inf, 0.0, math.nan])
    def test_spec_legs_positive_and_finite(self, leg):
        with pytest.raises(InputError, match="legs must be positive and finite"):
            op.RectSpec(3, (1.0, leg, 2.0))

    def test_metrics_3_4(self):
        m = op.rect_metrics(op.RectSpec(2, (3.0, 4.0)))
        assert m.volume == pytest.approx(6.0)
        assert m.hyp_volume == pytest.approx(5.0)
        assert m.altitude == pytest.approx(2.4)
        assert m.inradius == pytest.approx(1.0)
        assert m.r_squared == pytest.approx(6.25)
        assert np.allclose(m.circumcenter, [1.5, 2.0])

    def test_metrics_unit_legs(self):
        m = op.rect_metrics(op.RectSpec(3, (1.0, 1.0, 1.0)))
        assert m.volume == pytest.approx(1 / 6)
        assert m.hyp_volume == pytest.approx(math.sqrt(3) / 2)
        assert m.altitude == pytest.approx(1 / math.sqrt(3))
        assert m.inradius == pytest.approx(1 / (3 + math.sqrt(3)), rel=1e-12)
        assert m.r_squared == pytest.approx(0.75)
        assert np.allclose(m.hyp_orthocenter_bary, 1 / 3)

    def test_scaling_homogeneity(self):
        m1 = op.rect_metrics(op.RectSpec(3, (1.0, 2.0, 3.0)))
        lam = 2.5
        m2 = op.rect_metrics(op.RectSpec(3, (lam, 2 * lam, 3 * lam)))
        assert m2.volume == pytest.approx(lam**3 * m1.volume, rel=1e-12)
        assert m2.inradius == pytest.approx(lam * m1.inradius, rel=1e-12)
        assert m2.r_squared == pytest.approx(lam**2 * m1.r_squared, rel=1e-12)

    def test_centers_distinct_3_4_5(self):
        rep = op.center_report(op.rectangular(op.RectSpec(3, (3.0, 4.0, 5.0))))
        assert rep.coincident_pairs == ()
        pts = [rep.centroid, rep.circumcenter, rep.incenter, rep.monge]
        for a, b in combinations(pts, 2):
            assert np.linalg.norm(a - b) > 1e-6 * rep.circumradius

    def test_d2_circumcenter_on_hypotenuse(self):
        s = op.rectangular(op.RectSpec(2, (1.0, 1.0)))
        c, _ = op.circumcenter(s)
        m = np.vstack([s.vertices.T, np.ones(3)])
        bary = np.linalg.solve(m, np.concatenate([c, [1.0]]))
        assert bary[-1] == pytest.approx(0.0, abs=1e-12)

    def test_incenter_never_centroid(self):
        # I = G would need b_i = (d+1) r for all i, forcing d+1 = d+sqrt(d)
        for d in (2, 3, 5):
            rep = op.center_report(op.rectangular(op.RectSpec(d, tuple([1.0] * d))))
            assert np.linalg.norm(rep.incenter - rep.centroid) > 1e-3


class TestRectMetricsAnyLegs:
    """rect_metrics forms its sums from the legs over a power of two, so legs
    far from 1 neither warn (warnings are errors in this suite) nor give a
    0 or an inf where the value is a float."""

    @pytest.mark.parametrize("legs", [(1e-200, 1.0), (1e200, 1.0), (1.0, 1e-200, 3.0),
                                      (1e200, 2e200, 1e-150)])
    def test_extreme_legs_match_the_closed_forms(self, legs):
        m = op.rect_metrics(op.RectSpec(len(legs), legs))
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            b = [decimal.Decimal(x) for x in legs]
            inv2 = sum(1 / x**2 for x in b)
            want = {
                "altitude": 1 / inv2.sqrt(),
                "inradius": 1 / (sum(1 / x for x in b) + inv2.sqrt()),
            }
            orthocenter = [float(1 / x / inv2) for x in b]  # b_i w_i, w_i ~ 1/b_i^2
        for name, value in want.items():
            got = getattr(m, name)
            assert 0.0 < got < math.inf
            assert got == pytest.approx(float(value), rel=1e-14)
        for got, value in zip(m.hyp_orthocenter.tolist(), orthocenter):
            assert got == pytest.approx(value, rel=1e-14, abs=0.0)
        assert max(m.hyp_orthocenter) > 0.0

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
    def test_scale_covariance(self, d, scale):
        legs = tuple(np.random.default_rng(d).uniform(0.5, 2.0, size=d))
        base = op.rect_metrics(op.RectSpec(d, legs))
        m = op.rect_metrics(op.RectSpec(d, tuple(scale * b for b in legs)))
        assert m.altitude == pytest.approx(scale * base.altitude, rel=1e-14)
        assert m.inradius == pytest.approx(scale * base.inradius, rel=1e-14)
        assert np.allclose(m.hyp_orthocenter, scale * base.hyp_orthocenter, rtol=1e-14, atol=0.0)
        assert np.allclose(m.hyp_orthocenter_bary, base.hyp_orthocenter_bary,
                           rtol=1e-14, atol=0.0)
        assert np.allclose(m.circumcenter, scale * base.circumcenter, rtol=1e-15, atol=0.0)
        want_r2 = scale * scale * base.r_squared
        assert m.r_squared == (sx._FLOAT_MAX if want_r2 == math.inf
                               else pytest.approx(want_r2, rel=1e-14))

    def test_in_range_legs_keep_the_direct_bits(self):
        legs = (0.7, 1.3, 1.9, 0.55)
        b = np.asarray(legs)
        inv2 = float((1.0 / b**2).sum())
        m = op.rect_metrics(op.RectSpec(4, legs))
        assert m.altitude == 1.0 / math.sqrt(inv2)
        assert m.inradius == 1.0 / (float((1.0 / b).sum()) + math.sqrt(inv2))
        assert m.r_squared == float((b**2).sum()) / 4.0
        w = (1.0 / b**2) / inv2
        assert np.array_equal(m.hyp_orthocenter_bary, w)
        assert np.array_equal(m.hyp_orthocenter, w @ np.diag(b))


class TestRectRows:
    """The rows form of the rectangular closed forms: each row of a block
    gets the bits of ``rect_metrics`` of its legs alone."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", range(2, 41))
    def test_rows_match_one_row_calls(self, d):
        rng = np.random.default_rng(d)
        rows = []
        for scale in (1e-200, 1e-5, 1.0, 1e5, 1e200):
            for push in (1.0, 1e-100, 1e100):
                legs = scale * rng.uniform(0.5, 2.0, size=d)
                legs[rng.integers(d)] *= push
                rows.append(legs)
        block = fam._rect_rows(np.array(rows))
        for r, legs in enumerate(rows):
            want = op.rect_metrics(op.RectSpec(d, tuple(legs.tolist())))
            for name, value in vars(want).items():
                got = getattr(block, name)[r]
                assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), (r, name)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, leg, scales", [
        (3, 1.0, (1.0, 1e103, 1e150, 1e-150)),  # in range; prod overflows, V does not; over; under
        (171, 100.0, (1.0, 1e3, 1e-3)),  # 171! is no float: in range, over, under by the log
    ])
    def test_volumes_of_rows_in_and_out_of_range(self, d, leg, scales):
        """A block whose volumes lie in float range, above it and below it:
        each row's volume and hypotenuse volume are those of its legs alone,
        and in range the volume is the product over d! as written."""
        rng = np.random.default_rng(d)
        rows = [scale * leg * rng.uniform(0.5, 1.5, size=d) for scale in scales]
        block = fam._rect_rows(np.array(rows))
        for r, legs in enumerate(rows):
            want = op.rect_metrics(op.RectSpec(d, tuple(legs.tolist())))
            assert block.volume[r].tobytes() == np.float64(want.volume).tobytes(), r
            assert block.hyp_volume[r].tobytes() == np.float64(want.hyp_volume).tobytes(), r
        assert 0.0 < block.volume[0] < sx._FLOAT_MAX
        assert list(block.volume[-2:]) == [sx._FLOAT_MAX, 0.0]
        if d <= 170:
            assert block.volume[0] == math.prod(rows[0].tolist()) / math.factorial(d)
            assert math.prod(rows[1].tolist()) == math.inf and block.volume[1] < sx._FLOAT_MAX


class TestRegularCache:
    """``regular`` computes the coordinates of each (d, edge) once, read-only
    and shared, and builds a fresh simplex of them for every call; its
    arguments are checked before the cache is read."""

    def test_equal_arguments_share_one_coordinate_array(self):
        fam._regular.cache_clear()
        coords = fam._regular(4, 1.0)
        assert not coords.flags.writeable
        built = [op.regular(4, 1.0), op.regular(4, 1), op.regular(np.int64(4), np.float64(1.0)),
                 op.regular(4, 1.0, TolerancePolicy(rel=1e-6))]
        for s in built:
            assert s.vertices is not coords and s.vertices.tobytes() == coords.tobytes()
        assert len({id(s) for s in built}) == len(built)
        assert fam._regular(4, 1.0) is coords
        assert fam._regular.cache_info().misses == 1

    def test_dropped_simplex_frees_its_tables(self):
        """Tables computed on a regular simplex go with it: analysing
        ``regular(200)`` and dropping it holds little more than its
        coordinates (the index tables of its size are cached first)."""
        fam._regular.cache_clear()
        cli.analysis_doc(op.regular(200, 2.0), TolerancePolicy())
        tracemalloc.start()
        try:
            cli.analysis_doc(op.regular(200, 1.0), TolerancePolicy())
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

    @pytest.mark.parametrize("d, edge", [(True, 1.0), (3.0, 1.0), (np.float64(3.0), 1.0),
                                         (3, math.inf), (3, math.nan), (3, -1.0)])
    def test_arguments_are_checked_before_the_cache(self, d, edge):
        for cached in (1, 3):  # keys equal to True and to 3.0
            op.regular(cached, 1.0)
        with pytest.raises(InputError):
            op.regular(d, edge)


class TestIntegerDimension:
    """A dimension that is not an integer (a float, a bool) is an InputError
    at every family entry point, as at ``from_vertices``."""

    @pytest.mark.parametrize("d", [3.5, 4.0, True, np.float64(4.0)])
    def test_kite_spec(self, d):
        with pytest.raises(InputError, match="integer"):
            op.KiteSpec(d, 1.0, 1.0)

    @pytest.mark.parametrize("d", [2.0, 2.5, True])
    def test_rect_spec(self, d):
        with pytest.raises(InputError, match="integer"):
            op.RectSpec(d, (1.0, 1.0))

    @pytest.mark.parametrize("d", [2.5, 3.0, True])
    def test_regular(self, d):
        with pytest.raises(InputError, match="integer"):
            op.regular(d, 1.0)

    @pytest.mark.parametrize("d", [2.5, 3.0, True])
    def test_regular_metrics(self, d):
        with pytest.raises(InputError, match="integer"):
            op.regular_metrics(d, 1.0)

    @pytest.mark.parametrize("d, m", [(10.0, 2), (10, 2.0), (True, 2), (10, True)])
    def test_equiradial_spec(self, d, m):
        with pytest.raises(InputError, match="integers"):
            op.EquiradialSpec(d, m, 1)

    @pytest.mark.parametrize("branch", [True, 1.0, 2.0, "1", None, 3, 0])
    def test_equiradial_branch(self, branch):
        with pytest.raises(InputError, match="branch"):
            op.EquiradialSpec(10, 2, branch)

    @pytest.mark.parametrize("d, m", [(9.5, 2), (10.0, 2), (10, 2.0)])
    def test_equiradial_admissible(self, d, m):
        with pytest.raises(InputError, match="integers"):
            op.equiradial_admissible(d, m)

    @pytest.mark.parametrize("d, m", [(10, 2.0), (10.0, 2)])
    def test_equiradial_general(self, d, m):
        with pytest.raises(InputError, match="integers"):
            op.equiradial_general(d, m, 1)

    @pytest.mark.parametrize("edge", [math.inf, math.nan, 0.0, -1.0])
    def test_regular_edge_is_positive_and_finite(self, edge):
        """``regular_metrics`` rejects what ``regular`` rejects."""
        with pytest.raises(InputError):
            op.regular(3, edge)
        with pytest.raises(InputError):
            op.regular_metrics(3, edge)

    def test_numpy_integers_are_integers(self):
        assert op.equiradial_admissible(np.int64(10), np.int8(2))
        assert op.EquiradialSpec(np.int64(10), np.int32(2), np.int8(2)).n == 9
        assert op.regular(np.int64(3), 1.0).dim == 3
        assert op.regular_metrics(np.int32(3), 1.0) == op.regular_metrics(3, 1.0)
        assert op.KiteSpec(np.int64(4), 1.0, 1.0).d == 4
        assert op.RectSpec(np.int8(2), (1.0, 2.0)).d == 2


class TestLift:
    def test_equilateral_side_sqrt2(self):
        t = op.regular(2, math.sqrt(2.0))
        spec, lifted = op.lift_to_rectangular(t)
        assert np.allclose(spec.legs, 1.0, rtol=1e-9)
        assert lifted.dim == 3

    def test_obtuse_not_liftable(self):
        t = op.construct([2.0, -0.5, -0.5], 1.0)
        with pytest.raises(NotLiftableError):
            op.lift_to_rectangular(t)

    def test_rectangular_not_liftable(self):
        t = op.rectangular(op.RectSpec(2, (1.0, 2.0)))
        with pytest.raises(NotLiftableError):
            op.lift_to_rectangular(t)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_round_trip_legs(self, d):
        rng = np.random.default_rng(d)
        legs = rng.uniform(0.5, 2.0, size=d)
        s = op.rectangular(op.RectSpec(d, tuple(legs)))
        facet = sx.face(s, tuple(range(d)))
        spec, _ = op.lift_to_rectangular(facet)
        assert np.max(np.abs(np.asarray(spec.legs) - legs)) <= 1e-8

    def test_hypotenuse_facet_reproduces_input_edges(self):
        t = op.construct([0.4, 0.3, 0.2, 0.1], 1.0)
        spec, lifted = op.lift_to_rectangular(t)
        facet = sx.face(lifted, tuple(range(lifted.dim)))
        assert np.allclose(
            sx.squared_edge_table(facet), sx.squared_edge_table(t), atol=1e-9
        )


class TestEquiradialGeneral:
    def test_admissibility_table(self):
        assert op.equiradial_admissible(9, 2)
        assert not op.equiradial_admissible(8, 2)
        assert not op.equiradial_admissible(9, 3)
        assert op.equiradial_admissible(10, 2)

    def test_admissibility_implies_d_at_least_9(self):
        for d in range(3, 9):
            for m in range(2, d):
                assert not op.equiradial_admissible(d, m)

    def test_inadmissible_raises_with_sides(self):
        with pytest.raises(AdmissibilityError) as err:
            op.equiradial_general(8, 2, 1)
        assert err.value.lhs == 14
        assert err.value.rhs == pytest.approx((11 / 3) ** 2)

    def test_bad_branch(self):
        with pytest.raises(InputError):
            op.equiradial_general(9, 2, 3)

    def test_nine_two_branch_one_fixture(self):
        # oracle: roots of Z^2 - 26 Z + 112 are 13 +/- sqrt(57);
        # x = -(27 + sqrt(57))/7, a = -1/x = (27 - sqrt(57))/96
        _, sol = op.equiradial_general(9, 2, 1)
        root = math.sqrt(57.0)
        assert sol.xi == pytest.approx(13 + root, rel=1e-12)
        assert sol.eta == pytest.approx(13 - root, rel=1e-12)
        assert sol.x == pytest.approx(-(27 + root) / 7, rel=1e-12)
        assert sol.a == pytest.approx((27 - root) / 96, rel=1e-9)
        assert sol.a == pytest.approx(0.2026058913, rel=1e-9)
        assert sol.b == pytest.approx(0.0743485272, rel=1e-8)
        assert 2 * sol.a + 8 * sol.b == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("branch", [1, 2])
    def test_nine_two_invariants(self, branch):
        s, sol = op.equiradial_general(9, 2, branch)
        m, n, d = 2, 8, 9
        assert abs(sol.x * sol.y + n * sol.x + m * sol.y) < 1e-10 * abs(sol.x * sol.y)
        assert abs(sol.x * sol.y + sol.x + sol.y - 48) < 1e-10 * 48
        assert sol.xi + sol.eta == pytest.approx(d * d - 3 * d + 4 - 2 * m * n, rel=1e-12)
        assert sol.xi * sol.eta == pytest.approx(m * n * (m * n - d), rel=1e-12)
        assert sol.x + m < 0 and sol.y + n < 0
        assert m * sol.a + n * sol.b == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("branch", [1, 2])
    def test_nine_two_geometry(self, branch):
        s, sol = op.equiradial_general(9, 2, branch)
        assert op.is_orthocentric(s)
        p = op.params_of(s)
        assert not p.rectangular
        assert np.allclose(p.bary[:2], sol.a, rtol=1e-8)
        assert np.allclose(p.bary[2:], sol.b, rtol=1e-8)
        radii = facet_circumradii(s)
        assert (np.max(radii) - np.min(radii)) / np.max(radii) <= 1e-8
        flags = op.shape_predicates(s)
        assert flags.is_equiradial and not flags.is_regular
        cd = op.circum_data(p, s)
        assert not cd.interior
        rep = op.center_report(s)
        assert rep.coincident_pairs == ()

    def test_residual_checks_below_round_off_raise_numeric_error(self):
        with pytest.raises(NumericError, match=r"equiradial \(9, 2, branch 1\)"):
            op.equiradial_general(9, 2, 1, TolerancePolicy(rel=1e-16))

    def test_branches_not_similar(self):
        s1, _ = op.equiradial_general(9, 2, 1)
        s2, _ = op.equiradial_general(9, 2, 2)
        sig1 = np.sort(sx.edge_lengths(s1))
        sig2 = np.sort(sx.edge_lengths(s2))
        assert not np.allclose(sig1 / sig1.max(), sig2 / sig2.max(), rtol=1e-3)


def direct_volumes(d, s, t, legs):
    """The family volume formulas as written before the out-of-range rule:
    (regular, kite, rect volume, rect hypotenuse volume), None where one
    raises or is not a finite float."""

    def finite(f):
        try:
            with np.errstate(over="ignore"):
                v = f()
        except OverflowError:
            return None
        return v if math.isfinite(v) else None

    b = np.asarray(legs, dtype=float)
    with np.errstate(over="ignore"):
        prod = float(b.prod())
    inv2 = float((1.0 / b**2).sum())
    core = 2.0 * (t / s) ** 2 * d - (d - 1)
    return (
        finite(lambda: s**d * math.sqrt((d + 1) / 2.0**d) / math.factorial(d)),
        finite(lambda: s**d * math.sqrt(core / 2.0**d) / math.factorial(d)),
        finite(lambda: prod / math.factorial(d)),
        finite(lambda: prod / math.factorial(d - 1) * math.sqrt(inv2)),
    )


def family_volumes(d, s, t, legs):
    return (
        op.regular_metrics(d, s).volume,
        op.kite_metrics(op.KiteSpec(d, s, t)).volume,
        op.rect_metrics(op.RectSpec(d, tuple(legs))).volume,
        op.rect_metrics(op.RectSpec(d, tuple(legs))).hyp_volume,
    )


class TestFamilyVolumesInAnyDimension:
    """The closed-form volumes never raise or warn (warnings are errors in
    this suite); in range they keep the bits of the direct formulas."""

    @pytest.mark.parametrize("d", [3, 8, 40, 100, 150, 170])
    def test_in_range_bits_match_the_direct_formulas(self, d):
        rng = np.random.default_rng(d)
        compared = 0
        for s, t, legs in (
            (1.0, 1.0, [1.0] * d),
            (0.7, 0.9, rng.uniform(0.5, 2.0, size=d)),
            (3.0, 2.5, rng.uniform(1.0, 8.0, size=d)),
            (1e2, 1e2, [1e3] * d),
            (1e-3, 2e-3, [1e-3] * d),
        ):
            got = family_volumes(d, s, t, legs)
            for g, want in zip(got, direct_volumes(d, s, t, legs)):
                if want is not None:
                    assert g == want
                    compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("d", [171, 200, 1100])
    @pytest.mark.parametrize("s, t, leg", [(1.0, 1.0, 1.0), (1e4, 2e4, 1e3), (1e-4, 1e-4, 1e-3)])
    def test_out_of_range_is_the_log_form(self, d, s, t, leg):
        got = family_volumes(d, s, t, [leg] * d)
        core = 2.0 * (t / s) ** 2 * d - (d - 1)
        logs = (
            d * math.log(s) + (math.log(d + 1) - d * math.log(2.0)) / 2 - math.lgamma(d + 1),
            d * math.log(s) + (math.log(core) - d * math.log(2.0)) / 2 - math.lgamma(d + 1),
            d * math.log(leg) - math.lgamma(d + 1),
            d * math.log(leg) - math.lgamma(d) + math.log(d / leg**2) / 2,
        )
        for g, lg in zip(got, logs):
            if lg >= math.log(sx._FLOAT_MAX):
                assert g == sx._FLOAT_MAX
            else:
                assert g == pytest.approx(math.exp(lg), rel=1e-12, abs=0.0)

    def test_examples_that_raised_or_warned(self):
        assert op.regular_metrics(1024, 1.0).volume == 0.0
        want = math.exp(100 * math.log(1e4) + (math.log(101) - 100 * math.log(2.0)) / 2
                        - math.lgamma(101))
        assert op.regular_metrics(100, 1e4).volume == pytest.approx(want, rel=1e-12)
        m = op.rect_metrics(op.RectSpec(150, (1e3,) * 150))
        assert m.volume == pytest.approx(math.exp(450 * math.log(10) - math.lgamma(151)),
                                         rel=1e-12)

    @pytest.mark.parametrize("d", [171, 200])
    def test_kite_builds(self, d):
        k = op.kite(op.KiteSpec(d, 1.0, 1.0))
        assert k.dim == d and op.is_orthocentric(k)


class TestFamilyOrthocentricity:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_regular(self, d):
        assert op.is_orthocentric(op.regular(d, 1.0))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_rectangular(self, d):
        legs = tuple(float(1 + i) for i in range(d))
        assert op.is_orthocentric(op.rectangular(op.RectSpec(d, legs)))
