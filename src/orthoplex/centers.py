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


@dataclass(frozen=True, eq=False)
class CenterReport:
    centroid: np.ndarray
    circumcenter: np.ndarray
    circumradius: float
    incenter: np.ndarray
    inradius: float
    monge: np.ndarray
    orthocenter: np.ndarray | None
    coincident_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
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
    return s.vertices.sum(axis=-2) / s.n


@sx._per_simplex
def circumcenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through all vertices: A_b + c and
    |c|, with c = C - A_b from the edge frame (:func:`simplex._frame`)."""
    b, *_, c = sx._frame(s)
    return s.vertices[sx._at(s, b)] + c, np.sqrt(sx._sq_norms(c))


@sx._per_simplex
def incenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere touching all facet hyperplanes.

    The facet volumes are d V / h_i, so the vertices are weighted by
    |n_i| = 1 / h_i of :func:`simplex._frame` and V cancels:
    I = sum(|n_i| A_i) / sum(|n_i|), r = 1 / sum(|n_i|).
    """
    w = sx._frame(s)[3]
    total = w.sum(axis=-1)
    return (w[..., None] * s.vertices).sum(axis=-2) / total[..., None], 1.0 / total


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
    line through C and H.  Where |H - C| is at most rel times the diameter
    the three points coincide and the ratio degenerates.
    """
    if not is_orthocentric(s, policy):
        raise NotOrthocentricError("Euler line requires an orthocentric simplex")
    return EulerLineData(**_euler_fields(s, policy))


def _euler_fields(s: sx.Simplex, policy: TolerancePolicy) -> dict:
    """The fields of :func:`euler_line` of an orthocentric ``s``, by name."""
    g, c, h = centroid(s), circumcenter(s)[0], monge_point(s)
    ch, offset = h - c, g - c
    length = math.sqrt(ch.dot(ch))
    if length <= policy.rel * sx.diameter(s):
        return {"ratio": None, "collinearity_residual": 0.0, "coincident": True}
    u = ch / length
    rest = offset - offset.dot(u) * u
    return {"ratio": math.sqrt(offset.dot(offset)) / math.sqrt((g - h).dot(g - h)),
            "collinearity_residual": math.sqrt(rest.dot(rest)), "coincident": False}


@sx._per_simplex
def _reach(s: sx.Simplex) -> float:
    """The largest vertex norm."""
    return sx._row_norms(s.vertices).max(axis=-1)


def _round_off(s: sx.Simplex, centers: np.ndarray) -> np.ndarray:
    """Round-off a face centroid and its distance to a center can carry in
    these coordinates, for rows of ``centers`` (..., m, d): n eps times the
    largest vertex norm plus the center norm."""
    return s.n * _EPS * (np.asarray(_reach(s))[..., None] + sx._row_norms(centers))


@sx._per_simplex
def _monge_gram(s: sx.Simplex):
    """(a, gram, sigma, spread) about the Monge point M: a = A - M by rows,
    gram = a a^T, sigma its mean off-diagonal entry (the obtuseness when M
    is the orthocenter) and spread the largest off-diagonal |gram - sigma|."""
    a = s.vertices - monge_point(s)[..., None, :]
    gram = a @ a.swapaxes(-1, -2)
    # the off-diagonal entries in row order: the flat matrix from its second
    # entry, n-1 rows of n+1 of which the last is diagonal; with n >= 3 the
    # reshape copies, and each contiguous row gives the one-simplex sums below
    n, lead = s.n, gram.shape[:-2]
    flat = gram.reshape(lead + (-1,))[..., 1:].reshape(lead + (n - 1, n + 1))
    off = flat[..., :-1].reshape(lead + (-1,))
    sigma = off.sum(axis=-1) / off.shape[-1]
    off -= np.asarray(sigma)[..., None]
    return a, gram, sigma, np.abs(off, out=off).max(axis=-1)


@lru_cache(maxsize=64)
def _levels(n: int):
    """Read-only (m, t, t^2, m^2, m(m-1), m/n, (m-1)/m) over the levels
    m = k+1 = 1..n-2 of the spheres below the facets of n vertices, with
    t = n / (2m); built once per n."""
    m = np.arange(1.0, n - 1)
    t = n / (2.0 * m)
    return sx._read_only((m, t, t * t, m * m, m * (m - 1), m / n, (m - 1) / m))


@sx._per_simplex
def _facet_sphere(s: sx.Simplex):
    """(center, radius, max_residual) of the k = d-1 sphere of any simplex,
    measured on its d+1 facet centroids (n G - A_j) / d."""
    d = s.dim
    g = centroid(s)
    center = ((d + 1) * g - circumcenter(s)[0]) / d
    dists = sx._row_norms((s.n * g[..., None, :] - s.vertices) / d - center[..., None, :])
    radius = np.sqrt((dists**2).sum(axis=-1) / s.n)
    residual = np.abs(dists - radius[..., None]).max(axis=-1)
    return center, radius, residual + _round_off(s, center[..., None, :])[..., 0]


@sx._per_simplex
def _mid_face_spheres(s: sx.Simplex):
    """(centers, radii, max_residuals), one row per k = 0..d-2: the spheres
    of an orthocentric simplex from the Gram matrix
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
    m, t, t2, m2, pairs, share, shrink = _levels(n)
    # w_i less t^2 |G - H|^2, which is the same for every i and goes into
    # ``fixed``; 2tm = n at every level, so one sort orders w for every k
    w = gram.diagonal(0, -2, -1) - n * (a @ b[..., None])[..., 0]
    w.sort(axis=-1)
    tail = t2 * sx._sq_norms(b)[..., None]
    fixed = m * tail + pairs * (np.asarray(sigma)[..., None] + tail)
    lo = (w.cumsum(axis=-1)[..., : d - 1] + fixed) / m2
    hi = (w[..., ::-1].cumsum(axis=-1)[..., : d - 1] + fixed) / m2
    radius = np.sqrt((share * w.sum(axis=-1)[..., None] + fixed) / m2)
    pad = shrink * np.asarray(slack)[..., None]
    spheres = h[..., None, :] + t[:, None] * b[..., None, :]
    residual = np.maximum(
        np.sqrt(hi + pad) - radius, radius - np.sqrt(np.maximum(lo - pad, 0.0))
    ) + _round_off(s, spheres)
    return spheres, radius, residual


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
    together cost O(d^2 log d); this is row k of :func:`feuerbach_spheres`.
    """
    d = s.dim
    if not (sx._is_int(k) and 0 <= k <= d - 1):
        raise InputError(f"k must be an integer in [0, {d - 1}], got {k!r}")
    if k < d - 1 and not is_orthocentric(s, policy):
        raise NotOrthocentricError(
            "mid-face spheres below the facet level require an orthocentric simplex"
        )
    return feuerbach_spheres(s, policy)[k - d]


def feuerbach_spheres(
    s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> list[FeuerbachSphere]:
    """Every mid-face sphere that exists: k = 0..d-1 when ``s`` is
    orthocentric (:func:`is_orthocentric`, read from the per-simplex
    squared-edge misfit), else only k = d-1.

    :func:`feuerbach_sphere` reads its k from this list.
    """
    spheres, radii, residuals = _sphere_rows(s, is_orthocentric(s, policy))
    low = s.dim - len(radii)
    return [FeuerbachSphere(low + k, center, r, x) for k, (center, r, x)
            in enumerate(zip(spheres, radii.tolist(), residuals.tolist()))]


def _sphere_rows(s: sx.Simplex, orthocentric: bool):
    """(centers, radii, max_residuals) of the spheres :func:`feuerbach_spheres`
    reports, one row per k along axis -2 of centers and -1 of the others:
    k = 0..d-1 when ``orthocentric``, else k = d-1 alone; on one simplex or
    each of a stack."""
    center, radius, residual = _facet_sphere(s)
    top = (center[..., None, :], np.asarray(radius)[..., None], np.asarray(residual)[..., None])
    if not orthocentric or s.dim < 2:  # a segment has no level below its facets
        return top
    mid, radii, residuals = _mid_face_spheres(s)
    return (np.concatenate((mid, top[0]), axis=-2), np.concatenate((radii, top[1]), axis=-1),
            np.concatenate((residuals, top[2]), axis=-1))


@sx._per_simplex
def _center_distances(s: sx.Simplex) -> np.ndarray:
    """The six distances between centroid, circumcenter, incenter and Monge
    point, in ``_CENTER_PAIRS`` order (the pair order of
    ``simplex._pair_rows``), rooted: the bits of ``np.linalg.norm``."""
    p = np.array((centroid(s), circumcenter(s)[0], incenter(s)[0], monge_point(s))).swapaxes(0, -2)
    return np.sqrt(sx._pair_rows(p))


def center_report(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> CenterReport:
    """All centers plus the coincidence pairs among
    {centroid, circumcenter, incenter, monge} at threshold rel * diameter."""
    return CenterReport(**_center_fields(s, is_orthocentric(s, policy), policy))


def _center_fields(s: sx.Simplex, orthocentric: bool, policy: TolerancePolicy) -> dict:
    """The fields of :func:`center_report` by name; no orthocenter unless ``orthocentric``."""
    (c, big_r), (i, small_r), monge = circumcenter(s), incenter(s), monge_point(s)
    limit = policy.rel * sx.diameter(s)
    pairs = tuple(p for p, x in zip(_CENTER_PAIRS, _center_distances(s).tolist()) if x <= limit)
    return {"centroid": centroid(s), "circumcenter": c, "circumradius": big_r, "incenter": i,
            "inradius": small_r, "monge": monge, "orthocenter": monge if orthocentric else None,
            "coincident_pairs": pairs}
