"""Classical simplex centers, the Euler line and the mid-face spheres.

Centers implemented: centroid, circumcenter, incenter, Monge point and
(when it exists) the orthocenter.  The Monge point is computed from the
closed form ((d+1) G - 2 C) / (d - 1), which satisfies its defining
hyperplane property in every dimension; for an orthocentric simplex it
coincides with the orthocenter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InputError, NotOrthocentricError
from .numerics import DEFAULT_POLICY, TolerancePolicy
from . import simplex as sx

__all__ = [
    "CenterReport",
    "FeuerbachSphere",
    "EulerLineData",
    "centroid",
    "circumcenter",
    "incenter",
    "monge_point",
    "orthocenter",
    "is_orthocentric",
    "euler_line",
    "feuerbach_sphere",
    "feuerbach_spheres",
    "center_report",
]

#: names used in coincidence pairs, in canonical order
CENTER_NAMES = ("centroid", "circumcenter", "incenter", "monge")
_CENTER_PAIRS = tuple(combinations(CENTER_NAMES, 2))
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CenterReport:
    centroid: np.ndarray
    circumcenter: np.ndarray
    circumradius: float
    incenter: np.ndarray
    inradius: float
    monge: np.ndarray
    orthocenter: np.ndarray | None
    coincident_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class FeuerbachSphere:
    k: int
    center: np.ndarray
    radius: float
    max_residual: float


@dataclass(frozen=True)
class EulerLineData:
    ratio: float | None
    collinearity_residual: float
    coincident: bool


@sx._per_simplex
def centroid(s: sx.Simplex) -> np.ndarray:
    return s.vertices.sum(axis=0) / s.n


@sx._per_simplex
def circumcenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through all vertices: A_b + c and
    |c|, with c = C - A_b from the edge frame (:func:`simplex._frame`)."""
    b, *_, c = sx._frame(s)
    return s.vertices[b] + c, sx._norm(c)


@sx._per_simplex
def incenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere touching all facet hyperplanes.

    The facet volumes are d V / h_i, so the vertices are weighted by
    |n_i| = 1 / h_i of :func:`simplex._frame` and V cancels:
    I = sum(|n_i| A_i) / sum(|n_i|), r = 1 / sum(|n_i|).
    """
    w = sx._frame(s)[3]
    total = float(w.sum())
    return (w[:, None] * s.vertices).sum(axis=0) / total, 1.0 / total


@sx._per_simplex
def monge_point(s: sx.Simplex) -> np.ndarray:
    """Common point of the hyperplanes through each edge-complement
    centroid perpendicular to that edge: ((d+1) G - 2 C) / (d - 1)."""
    if s.dim < 2:
        raise InputError("Monge point needs dimension >= 2")
    g = centroid(s)
    c, _ = circumcenter(s)
    return ((s.dim + 1) * g - 2.0 * c) / (s.dim - 1)


def is_orthocentric(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when all pairs of non-intersecting edges are perpendicular
    within tolerance (vacuously true for triangles): when the squared-edge
    misfit ``sx.edge_perpendicularity_residual(s)`` is at most ``policy.rel``.
    """
    return sx.edge_perpendicularity_residual(s) <= policy.rel


def orthocenter(
    s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray | None:
    """The common point of the altitudes, or None when they do not concur.

    When it exists it equals the Monge point.  Always present for d = 2.
    """
    if not is_orthocentric(s, policy):
        return None
    return monge_point(s)


def euler_line(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> EulerLineData:
    """Collinearity data for (circumcenter, centroid, orthocenter).

    ratio = |C - G| / |G - H|; the residual is the distance of G from the
    line through C and H.  For a (near-)regular simplex the three points
    coincide and the ratio degenerates.
    """
    h = orthocenter(s, policy)
    if h is None:
        raise NotOrthocentricError("Euler line requires an orthocentric simplex")
    g = centroid(s)
    c, _ = circumcenter(s)
    ch = h - c
    length = sx._norm(ch)
    if length <= policy.rel * sx.diameter(s):
        return EulerLineData(ratio=None, collinearity_residual=0.0, coincident=True)
    u = ch / length
    offset = g - c
    residual = sx._norm(offset - (offset @ u) * u)
    ratio = sx._norm(c - g) / sx._norm(g - h)
    return EulerLineData(ratio=ratio, collinearity_residual=residual, coincident=False)


@sx._per_simplex
def _reach(s: sx.Simplex) -> float:
    """The largest vertex norm."""
    return float(sx._row_norms(s.vertices).max())


def _round_off(s: sx.Simplex, center: np.ndarray):
    """Round-off a face centroid and its distance to ``center`` (centers
    along the last axis) can carry in these coordinates: n eps times the
    largest vertex norm plus the center norm."""
    return s.n * _EPS * (_reach(s) + sx._row_norms(center))


@lru_cache(maxsize=64)
def _off_diagonal(n: int) -> np.ndarray:
    """Read-only n x n mask of the off-diagonal entries, built once per n."""
    return sx._read_only(~np.eye(n, dtype=bool))


@sx._per_simplex
def _monge_gram(s: sx.Simplex):
    """(a, gram, sigma, spread) about the Monge point M: a = A - M by rows,
    gram = a a^T, sigma its mean off-diagonal entry (the obtuseness when M
    is the orthocenter) and spread the largest off-diagonal |gram - sigma|."""
    a = s.vertices - monge_point(s)
    gram = a @ a.T
    off = gram[_off_diagonal(s.n)]
    sigma = float(off.sum()) / off.size
    return a, gram, sigma, float(np.abs(off - sigma).max())


def _facet_sphere(s: sx.Simplex) -> FeuerbachSphere:
    """The k = d-1 sphere of any simplex, measured on its d+1 facet
    centroids (n G - A_j) / d."""
    d = s.dim
    g = centroid(s)
    center = ((d + 1) * g - circumcenter(s)[0]) / d
    dists = sx._row_norms((s.n * g - s.vertices) / d - center)
    radius = math.sqrt((dists**2).sum() / s.n)
    return FeuerbachSphere(
        k=d - 1,
        center=center,
        radius=radius,
        max_residual=float(np.abs(dists - radius).max() + _round_off(s, center)),
    )


def _mid_face_spheres(s: sx.Simplex) -> list[FeuerbachSphere]:
    """The spheres k = 0..d-2 of an orthocentric simplex from the Gram matrix
    B = (A - H)(A - H)^T of :func:`_monge_gram`, without visiting a face.

    With m = k+1, t = (d+1) / (2m), P = H + t (G - H), beta_i = (A_i - H).(G - H)
    and sigma the mean off-diagonal entry of B, the k-face I has
    |F_I - P|^2 = (sum_{i in I} w_i + m(m-1) q) / m^2, where
    w_i = B_ii - 2tm beta_i + t^2 |G - H|^2 and q = sigma + t^2 |G - H|^2.
    The extremes over all faces are the sums of the m smallest and m
    largest w_i, the mean over all faces uses (m/n) sum w.  Off-diagonal
    entries that deviate from sigma by up to R (round-off, or a nearly
    orthocentric input) move a squared distance by at most (m-1)/m R, so
    max_residual, with :func:`_round_off` added, bounds the deviation of
    every face centroid.
    """
    n, d = s.n, s.dim
    h = monge_point(s)
    a, gram, sigma, slack = _monge_gram(s)
    b = centroid(s) - h
    m = np.arange(1, d)
    t = n / (2.0 * m)
    # w_i less t^2 |G - H|^2, which is the same for every i and goes into
    # ``fixed``; 2tm = n at every level, so one sort orders w for every k
    w = gram.diagonal() - n * (a @ b)
    w.sort()
    tail = t * t * float(b @ b)
    fixed = m * tail + m * (m - 1) * (sigma + tail)
    lo = (w.cumsum()[: d - 1] + fixed) / m**2
    hi = (w[::-1].cumsum()[: d - 1] + fixed) / m**2
    radius = np.sqrt((m / n * w.sum() + fixed) / m**2)
    pad = (m - 1) / m * slack
    spheres = h + t[:, None] * b
    residual = np.maximum(
        np.sqrt(hi + pad) - radius, radius - np.sqrt(np.maximum(lo - pad, 0.0))
    ) + _round_off(s, spheres)
    return [
        FeuerbachSphere(
            k=k, center=spheres[k], radius=float(radius[k]), max_residual=float(residual[k])
        )
        for k in range(d - 1)
    ]


def feuerbach_sphere(
    s: sx.Simplex, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> FeuerbachSphere:
    """Sphere through the centroids of all k-faces.

    For any simplex the facet-centroid sphere (k = d-1) exists, centered at
    ((d+1) G - C) / d with radius R/d.  For orthocentric simplices the whole
    family 0 <= k <= d-1 exists, centered on the Euler line at
    H + (d+1) / (2 (k+1)) * (G - H).  The radius is reported as the square
    root of the mean squared distance to the k-face centroids.  Below the
    facet level it and max_residual, a closed-form upper bound on the
    deviation of any k-face centroid from the radius, come from the Gram
    matrix about H; the facet level measures its d+1 centroids.  All k
    together cost O(d^2 log d).
    """
    d = s.dim
    if not (sx._is_int(k) and 0 <= k <= d - 1):
        raise InputError(f"k must be an integer in [0, {d - 1}], got {k!r}")
    if k == d - 1:
        return _facet_sphere(s)
    if not is_orthocentric(s, policy):
        raise NotOrthocentricError(
            "mid-face spheres below the facet level require an orthocentric simplex"
        )
    return _mid_face_spheres(s)[k]


def feuerbach_spheres(
    s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> list[FeuerbachSphere]:
    """Every mid-face sphere that exists: k = 0..d-1 when ``s`` is
    orthocentric (:func:`is_orthocentric`, read from the per-simplex
    squared-edge misfit), else only k = d-1.

    Equal, bit for bit, to :func:`feuerbach_sphere` for each of those k.
    """
    return _sphere_family(s, is_orthocentric(s, policy))


def _sphere_family(s: sx.Simplex, orthocentric: bool) -> list[FeuerbachSphere]:
    """:func:`feuerbach_spheres` for a decision already made."""
    below = _mid_face_spheres(s) if orthocentric else []
    return below + [_facet_sphere(s)]


@sx._per_simplex
def _center_distances(s: sx.Simplex) -> np.ndarray:
    """The six distances between centroid, circumcenter, incenter and Monge
    point, in ``_CENTER_PAIRS`` order, as stacked 1 x d by d x 1 products
    (rooted, the bits of ``np.linalg.norm``)."""
    p = np.stack((centroid(s), circumcenter(s)[0], incenter(s)[0], monge_point(s)))
    i, j = sx._pair_index(len(p))  # the rows of each pair, _CENTER_PAIRS order
    e = p[i] - p[j]
    return np.sqrt(np.matmul(e[:, None, :], e[:, :, None])[:, 0, 0])


def center_report(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> CenterReport:
    """All centers plus the coincidence pairs among
    {centroid, circumcenter, incenter, monge} at threshold rel * diameter."""
    c, big_r = circumcenter(s)
    i, small_r = incenter(s)
    limit = policy.rel * sx.diameter(s)
    return CenterReport(
        centroid=centroid(s),
        circumcenter=c,
        circumradius=big_r,
        incenter=i,
        inradius=small_r,
        monge=monge_point(s),
        orthocenter=orthocenter(s, policy),
        coincident_pairs=tuple(
            pair for pair, dist in zip(_CENTER_PAIRS, _center_distances(s)) if dist <= limit
        ),
    )
