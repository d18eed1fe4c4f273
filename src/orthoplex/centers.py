"""Classical simplex centers, the Euler line and the mid-face spheres.

Centers implemented: centroid, circumcenter, incenter, Monge point and
(when it exists) the orthocenter.  The Monge point is computed from the
closed form ((d+1) G - 2 C) / (d - 1), which satisfies its defining
hyperplane property in every dimension; for an orthocentric simplex it
coincides with the orthocenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import InputError, NotOrthocentricError, NumericError
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
    return s.vertices.mean(axis=0)


@sx._per_simplex
def circumcenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through all vertices.

    Solves 2 (A_i - A_last) . C = |A_i|^2 - |A_last|^2 for i < d+1.
    """
    v = s.vertices
    a = 2.0 * (v[:-1] - v[-1])
    b = np.einsum("ij,ij->i", v[:-1], v[:-1]) - float(v[-1] @ v[-1])
    try:
        c = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid simplex
        raise NumericError(f"circumcenter system is singular: {exc}") from exc
    r = float(np.linalg.norm(v - c, axis=1).mean())
    return c, r


@sx._per_simplex
def incenter(s: sx.Simplex) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere touching all facet hyperplanes.

    Uses facet-volume weights: I = sum(V_i A_i) / sum(V_i), r = d V / sum(V_i).
    """
    w = sx.facet_volumes(s)
    total = float(w.sum())
    center = (w[:, None] * s.vertices).sum(axis=0) / total
    r = s.dim * sx.volume(s) / total
    return center, float(r)


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
    within tolerance (vacuously true for triangles)."""
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
    diam = sx.diameter(s)
    ch = h - c
    if np.linalg.norm(ch) <= policy.rel * diam:
        return EulerLineData(ratio=None, collinearity_residual=0.0, coincident=True)
    u = ch / np.linalg.norm(ch)
    offset = g - c
    residual = float(np.linalg.norm(offset - (offset @ u) * u))
    denom = np.linalg.norm(g - h)
    ratio = float(np.linalg.norm(c - g) / denom)
    return EulerLineData(ratio=ratio, collinearity_residual=residual, coincident=False)


def _k_face_centroids(s: sx.Simplex, k: int) -> np.ndarray:
    """Centroids of all k-faces, in ``combinations`` order.

    The gathered rows are summed column by column, the same addition order
    as ``mean(axis=0)`` on each face, so the result is bit-identical to it.
    """
    idx = np.fromiter(
        chain.from_iterable(combinations(range(s.n), k + 1)), np.intp
    ).reshape(-1, k + 1)
    v = s.vertices
    acc = v[idx[:, 0]]
    for j in range(1, k + 1):
        acc = acc + v[idx[:, j]]
    return acc / (k + 1)


def _sphere(
    s: sx.Simplex, k: int, g: np.ndarray, c: np.ndarray | None, h: np.ndarray | None
) -> FeuerbachSphere:
    """The k-level sphere from the centroid G and, at the facet level, the
    circumcenter C, below it the orthocenter H (the other may be None)."""
    d = s.dim
    if k == d - 1:
        center = ((d + 1) * g - c) / d
    else:
        center = h + (d + 1) / (2.0 * (k + 1)) * (g - h)
    dists = np.linalg.norm(_k_face_centroids(s, k) - center, axis=1)
    radius = float(dists.mean())
    return FeuerbachSphere(
        k=k,
        center=center,
        radius=radius,
        max_residual=float(np.max(np.abs(dists - radius))),
    )


def feuerbach_sphere(
    s: sx.Simplex, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> FeuerbachSphere:
    """Sphere through the centroids of all k-faces.

    For any simplex the facet-centroid sphere (k = d-1) exists, centered at
    ((d+1) G - C) / d with radius R/d.  For orthocentric simplices the whole
    family 0 <= k <= d-1 exists, centered on the Euler line at
    H + (d+1) / (2 (k+1)) * (G - H).  The radius is reported as the mean
    distance to the k-face centroids and max_residual as the worst
    deviation from it.
    """
    d = s.dim
    if not (0 <= k <= d - 1):
        raise InputError(f"k must lie in [0, {d - 1}], got {k}")
    g = centroid(s)
    if k == d - 1:
        return _sphere(s, k, g, circumcenter(s)[0], None)
    h = orthocenter(s, policy)
    if h is None:
        raise NotOrthocentricError(
            "mid-face spheres below the facet level require an orthocentric simplex"
        )
    return _sphere(s, k, g, None, h)


def feuerbach_spheres(s: sx.Simplex, report: CenterReport) -> list[FeuerbachSphere]:
    """Every mid-face sphere that exists, from centers already computed:
    k = 0..d-1 when ``report`` has an orthocenter, else only k = d-1.

    Equal, bit for bit, to :func:`feuerbach_sphere` for each of those k;
    the orthocentricity decision is the one ``report`` carries.
    """
    ks = range(s.dim) if report.orthocenter is not None else [s.dim - 1]
    return [
        _sphere(s, k, report.centroid, report.circumcenter, report.orthocenter) for k in ks
    ]


def center_report(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> CenterReport:
    """All centers plus the coincidence pairs among
    {centroid, circumcenter, incenter, monge} at threshold rel * diameter."""
    g = centroid(s)
    c, big_r = circumcenter(s)
    i, small_r = incenter(s)
    m = monge_point(s)
    h = orthocenter(s, policy)
    diam = sx.diameter(s)
    points = dict(zip(CENTER_NAMES, (g, c, i, m)))
    pairs = tuple(
        (x, y)
        for x, y in combinations(CENTER_NAMES, 2)
        if np.linalg.norm(points[x] - points[y]) <= policy.rel * diam
    )
    return CenterReport(
        centroid=g,
        circumcenter=c,
        circumradius=big_r,
        incenter=i,
        inradius=small_r,
        monge=m,
        orthocenter=h,
        coincident_pairs=pairs,
    )
