import dataclasses

import numpy as np
import pytest

from orthoplex import (
    InputError,
    NotPSDError,
    SymMatrix,
    TolerancePolicy,
    gram_embed,
    sym_eigen,
)


class TestTolerancePolicy:
    def test_defaults(self):
        p = TolerancePolicy()
        assert p.rel == 1e-9 and p.rank_cut == 1e-10

    def test_fields_are_rel_and_rank_cut(self):
        assert [f.name for f in dataclasses.fields(TolerancePolicy)] == ["rel", "rank_cut"]
        with pytest.raises(TypeError):
            TolerancePolicy(abs=1e-12)
        assert not hasattr(TolerancePolicy(), "isclose")

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InputError):
            TolerancePolicy(rel=bad)

    def test_empty_sample(self):
        p = TolerancePolicy()
        assert p.all_close([]) is True
        assert p.spread([]) == 0.0 and p.spread(np.empty(0)) == 0.0

    def test_spread_of_a_stack_is_the_spread_of_each_row(self):
        p = TolerancePolicy()
        rows = np.array([[2.0, -3.0, 2.5], [1e-15, 2e-15, 1e-15], [0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        got = p.spread(rows)
        assert got.shape == (4,)
        assert got.tolist() == [p.spread(row) for row in rows]
        assert p.spread(rows[None]).tolist() == [got.tolist()]

    def test_spread_and_all_close_agree_with_their_formulas(self):
        p = TolerancePolicy(rel=1e-3)
        v = np.array([2.0, -3.0, 2.5])
        assert p.spread(v) == 5.5 / 3.0
        assert not p.all_close(v) and p.all_close([1.0, 1.0005])
        # no absolute floor: a tiny sample is measured on its own scale
        assert p.spread([1e-15, 2e-15]) == 0.5
        assert not p.all_close([1e-15, 2e-15]) and p.all_close([1e-300, 1e-300 * (1 + 1e-4)])

    def test_all_zero_sample(self):
        p = TolerancePolicy()
        assert p.all_close([0.0, 0.0, -0.0]) is True
        assert p.spread([0.0, 0.0]) == 0.0

    def test_non_finite_sample_is_never_close(self):
        p = TolerancePolicy()
        assert np.isnan(p.spread([np.nan, 1.0])) and isinstance(p.spread([np.nan, 1.0]), float)
        for bad in ([np.inf, 1.0], [np.nan, 1.0], [-np.inf, 1.0], [np.inf, np.inf]):
            assert np.isnan(p.spread(bad))
            assert p.all_close(bad) is False

    def test_non_finite_row_of_a_stack(self):
        p = TolerancePolicy()
        rows = np.array([[2.0, -3.0, 2.5], [1.0, np.nan, 1.0], [0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        got = p.spread(rows)
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2, 3]]).any()
        assert got[[0, 2, 3]].tolist() == [p.spread(rows[i]) for i in (0, 2, 3)]

    @pytest.mark.parametrize("scale", [1e-200, 1e-6, 1.0, 1e6, 1e200])
    def test_scale_free(self, scale):
        p = TolerancePolicy(rel=1e-3)
        near, far = np.array([1.0, 1.0005]), np.array([1.0, 1.002])
        assert p.all_close(near * scale) and not p.all_close(far * scale)
        assert p.spread(far * scale) == pytest.approx(0.002 / 1.002, rel=1e-12)


class TestSymMatrix:
    def test_symmetrizes_exactly(self):
        m = SymMatrix([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
        assert np.array_equal(m.a, m.a.T)
        assert m.n == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            SymMatrix([[1.0, 2.0], [5.0, 3.0]])

    @pytest.mark.parametrize("scale", [1e-200, 1e-6, 1.0, 1e6, 1e200])
    def test_symmetry_tolerance_is_relative(self, scale):
        # an off-diagonal entry raised by 1e-6 relative is rejected at every
        # scale (there is no unit floor), one raised by 1e-10 accepted
        a = np.array([[1.0, 2.0], [2.0, 3.0]]) * scale
        for bump, ok in ((1e-6, False), (1e-10, True)):
            b = a.copy()
            b[0, 1] *= 1.0 + bump
            if ok:
                assert np.array_equal(SymMatrix(b).a, (b + b.T) / 2.0)
            else:
                with pytest.raises(InputError, match="not symmetric"):
                    SymMatrix(b)

    def test_zero_and_empty_matrices(self):
        assert SymMatrix(np.zeros((2, 2))).n == 2
        assert SymMatrix(np.zeros((0, 0))).n == 0

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(InputError):
            SymMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
        with pytest.raises(InputError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])


class TestSymEigen:
    def test_identity(self):
        vals, vecs = sym_eigen(SymMatrix(np.eye(4)))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(4))

    def test_rank_one_all_ones(self):
        vals, _ = sym_eigen(SymMatrix(np.ones((3, 3))))
        assert np.allclose(sorted(vals, reverse=True), [3.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_obtuseness_gram_form(self):
        # diagonal -2, off-diagonal 1: characteristic polynomial (l+3)^2 l
        g = np.ones((3, 3)) - 3 * np.eye(3)
        vals, _ = sym_eigen(SymMatrix(g))
        assert np.allclose(vals, [0.0, -3.0, -3.0], atol=1e-12)

    def test_residuals_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 9)
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            vals, vecs = sym_eigen(SymMatrix(m))
            norm = np.linalg.norm(m, 2)
            for lam, v in zip(vals, vecs.T):
                assert np.linalg.norm(m @ v - lam * v) <= 1e-9 * norm
            assert np.all(np.diff(vals) <= 1e-12)  # descending


class TestGramEmbed:
    def test_identity_gives_orthonormal_points(self):
        pts = gram_embed(SymMatrix(np.eye(3)))
        assert pts.shape == (3, 3)
        assert np.allclose(pts @ pts.T, np.eye(3), atol=1e-12)

    def test_regular_triangle_gram(self):
        # R^2 = 1/3, pairwise inner product -R^2/2: unit side, rank 2
        r2 = 1.0 / 3.0
        g = np.full((3, 3), -r2 / 2) + np.diag([r2 * 1.5] * 3)
        pts = gram_embed(SymMatrix(g))
        assert pts.shape == (3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, rel=1e-12)

    def test_negated_uniform_gram_form(self):
        # diagonal 2, off-diagonal -1 embeds as an equilateral triangle,
        # squared side 2 + 2 - 2*(-1) = 6
        g = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        pts = gram_embed(SymMatrix(g))
        assert pts.shape == (3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.sum((pts[i] - pts[j]) ** 2) == pytest.approx(6.0, rel=1e-12)

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            r = int(rng.integers(1, n + 1))
            f = rng.normal(size=(n, r))
            g = f @ f.T
            lam_max = float(np.linalg.eigvalsh(g)[-1])
            pts = gram_embed(SymMatrix(g))
            assert np.max(np.abs(pts @ pts.T - g)) <= 1e-8 * lam_max

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            gram_embed(SymMatrix(np.diag([1.0, -1.0])))

    def test_clamps_tiny_negative(self):
        g = np.diag([1.0, -1e-14])
        pts = gram_embed(SymMatrix(g))
        assert pts.shape == (2, 1)
