"""Float centers, volumes and facet radii against exact rational values.

Every float vertex is a rational number, so ``fractions.Fraction`` gives the
exact circumcenter, circumradius and volumes of the simplex the floats
describe; the float results must match them to 1e-12 relative on inputs
that defeat absolute-coordinate formulas (translated, flat, needles, slivers).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import orthoplex as op
from orthoplex import centers
from orthoplex import simplex as sx

TOL = 1e-12


def exact_solve(m, rhs):
    """(det m, m^-1 rhs) by Gaussian elimination over the rationals."""
    a = [list(row) + [r] for row, r in zip(m, rhs)]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))) / a[k][k]
    return det, x


def exact_sphere(points):
    """(squared volume, squared circumradius, circumcenter) of the simplex
    on ``points`` (rows of Fractions): with edges f_j from the first point
    and Gram matrix G, the center is p_0 + sum a_j f_j where G a = diag(G) / 2."""
    base = points[0]
    f = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    g = [[sum(x * y for x, y in zip(u, v)) for v in f] for u in f]
    det, a = exact_solve(g, [g[i][i] / 2 for i in range(len(f))])
    r_sq = sum(a_j * g[j][j] for j, a_j in enumerate(a)) / 2
    center = [b + sum(a_j * u[c] for a_j, u in zip(a, f)) for c, b in enumerate(base)]
    return det / math.factorial(len(f)) ** 2, r_sq, center


def needle(d, apex, rng):
    v = 1e-3 * rng.normal(size=(d + 1, d))
    v[apex, 0] += 1.0
    return v


def fixtures():
    out = []
    for d in range(2, 7):
        rng = np.random.default_rng(20 + d)
        out.append((f"translated-{d}", rng.normal(size=(d + 1, d)) + 1e4))
        flat = op.regular(d, 1.0).vertices + 0.1 * rng.normal(size=(d + 1, d))
        flat[:, -1] *= 1e-4
        out.append((f"flat-{d}", flat))
        out.append((f"needle-0-{d}", needle(d, 0, rng)))
        out.append((f"needle-{d}-{d}", needle(d, d, rng)))
        if d >= 3:  # vertices on a (d-2)-sphere, lifted by 1e-4 against their dependency
            u = rng.normal(size=(d + 1, d - 1))
            u /= np.linalg.norm(u, axis=1)[:, None]
            mu = np.linalg.svd(np.vstack([u.T, np.ones(d + 1)]))[2][-1]
            out.append((f"sliver-{d}", np.column_stack([u, 1e-4 * np.sign(mu)])))
    return out


def rel_err(got, want_sq):
    want = math.sqrt(float(want_sq))
    return abs(got - want) / want


@pytest.mark.parametrize("name, vertices", fixtures(), ids=[n for n, _ in fixtures()])
def test_float_matches_exact(name, vertices):
    d = vertices.shape[1]
    s = op.from_vertices(d, vertices)
    pts = [[Fraction(x) for x in row] for row in s.vertices.tolist()]
    vol_sq, r_sq, center = exact_sphere(pts)
    c, big_r = centers.circumcenter(s)
    # beyond 1e-12 R, a point may carry the rounding of its own coordinates
    c_err = math.sqrt(sum(float(Fraction(x) - y) ** 2 for x, y in zip(c.tolist(), center)))
    assert c_err <= TOL * math.sqrt(float(r_sq)) + float(np.linalg.norm(np.spacing(c)))
    assert rel_err(big_r, r_sq) <= TOL
    assert rel_err(sx.volume(s), vol_sq) <= TOL
    for i in range(s.n):
        facet_vol_sq, facet_r_sq, _ = exact_sphere(pts[:i] + pts[i + 1:])
        assert rel_err(sx.facet_volumes(s)[i], facet_vol_sq) <= TOL, i
        assert rel_err(sx.facet_circumradii(s)[i], facet_r_sq) <= TOL, i


def exact_gram_det(points):
    """det of the Gram matrix of the edges from the first of ``points``:
    (k! V)^2 for the k-simplex on them."""
    f = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    g = [[sum(x * y for x, y in zip(u, v)) for v in f] for u in f]
    return exact_solve(g, [Fraction(0)] * len(f))[0]


def exact_thickness_sq(points):
    """t^2 = min h_i^2 / max E, with h_i^2 = det G / det G_i, the Gram
    determinants of the simplex and of its facet opposite point i."""
    full = exact_gram_det(points)
    h_sq = min(full / exact_gram_det(points[:i] + points[i + 1:]) for i in range(len(points)))
    top = max(sum((x - y) ** 2 for x, y in zip(p, q))
              for i, p in enumerate(points) for q in points[i + 1:])
    return h_sq / top


def rule_thickness(vertices):
    """The relative thickness the degeneracy rule reads: under rank_cut 0.99
    every simplex of dimension 2 and up is refused, naming it."""
    with pytest.raises(op.DegenerateSimplexError) as err:
        op.from_vertices(vertices.shape[1], vertices, op.TolerancePolicy(rank_cut=0.99))
    return err.value.thickness


def near_cut(d, seed):
    """Gaussian d-simplices under a similarity with one axis squashed, and
    slivers (points on a (d-2)-sphere lifted against their dependency),
    whose t^2 lies within 10x of the default rank_cut 1e-10."""
    rng = np.random.default_rng(seed)
    base, q = rng.normal(size=(d + 1, d)), np.linalg.qr(rng.normal(size=(d, d)))[0]
    shape = lambda f: (base * np.append(np.ones(d - 1), f)) @ q * rng.uniform(0.1, 10) + 3.0
    probe = rule_thickness(shape(1e-3))
    out = [shape(1e-3 * 1e-5 / probe * 10 ** u) for u in rng.uniform(-0.5, 0.5, size=3)]
    if d >= 3:
        u = rng.normal(size=(d + 1, d - 1))
        u /= np.linalg.norm(u, axis=1)[:, None]
        mu = np.linalg.svd(np.vstack([u.T, np.ones(d + 1)]))[2][-1]
        sliver = lambda lift: np.column_stack([u, lift * np.sign(mu)]) @ q
        probe = rule_thickness(sliver(1e-3))
        out.append(sliver(1e-3 * 1e-5 / probe * 10 ** rng.uniform(-0.5, 0.5)))
    return out


@pytest.mark.parametrize("d", range(2, 11))
def test_thickness_near_the_cut_matches_exact(d):
    """The LU frame's t against the exact t of the simplex the floats
    describe, for t^2 within 10x of rank_cut: at most 2.4e-11 relative
    (d = 8; 2.1e-12 to 1.2e-11 at the other d) over these 33 fixtures, the
    size of cond(e) eps at t ~ 1e-5.  A verdict can differ from the exact
    one only for t^2 that close to the cut."""
    for seed in range(4):
        for v in near_cut(d, 100 * d + seed):
            got = rule_thickness(v)
            want_sq = exact_thickness_sq([[Fraction(x) for x in row] for row in v.tolist()])
            assert 1e-11 <= float(want_sq) <= 1e-9
            assert rel_err(got, want_sq) <= 1e-10
