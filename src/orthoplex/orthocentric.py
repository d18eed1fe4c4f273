"""Parametrization of orthocentric simplices.

A non-rectangular orthocentric d-simplex is determined up to isometry by
the barycentric coordinates a_1..a_{d+1} of its orthocenter together with
the obtuseness sigma = (H - A_i) . (H - A_j), constant over vertex pairs.
Admissible coordinate tuples sum to 1 and are either all positive
(sigma < 0, every vertex angle strongly acute) or have exactly one
positive entry (sigma > 0, one strongly obtuse vertex).  Rectangular
simplices are the sigma = 0 degeneration, with the orthocenter at a
vertex.

With the orthocenter at the origin the Gram matrix of the vertices is
sigma * G where G has unit off-diagonal entries and diagonal 1 + x_i,
x_i = -1/a_i.  Construction inverts this: sigma G is a diagonal plus a
rank-one matrix, whose LDL^T factors are closed forms in the suffix sums
of the coordinates, and the vertices are read off that factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil

import numpy as np

from .errors import (
    InputError,
    NotOrthocentricError,
    ParametrizationError,
    RectangularParamsError,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy
from . import centers
from . import simplex as sx

__all__ = [
    "OrthoParams",
    "LambdaParams",
    "AltitudeData",
    "EdgeAltitudeData",
    "CircumData",
    "ACUTE",
    "OBTUSE",
    "RECTANGULAR",
    "is_orthocentric",
    "params_of",
    "construct",
    "edge_and_altitude_data",
    "restrict_to_face",
    "circum_data",
    "lambda_params",
    "orthocentric_system_check",
    "sample_params",
]

ACUTE = "acute"
OBTUSE = "obtuse"
RECTANGULAR = "rectangular"

#: orthocentricity test shared with the centers module
is_orthocentric = centers.is_orthocentric


@dataclass(frozen=True)
class OrthoParams:
    """Shape parameters: orthocenter barycentrics plus obtuseness.

    ``kind`` is one of ``acute`` / ``obtuse`` / ``rectangular``;
    ``rect_vertex`` holds the right-angle vertex index (0-based) in the
    rectangular case and is None otherwise.
    """

    dim: int
    bary: np.ndarray
    obtuseness: float
    kind: str
    rect_vertex: int | None = None

    @property
    def klass(self) -> str:
        """Class label: 'acute', 'obtuse', or 'rectangular-at-<k>'."""
        if self.kind == RECTANGULAR:
            return f"rectangular-at-{self.rect_vertex}"
        return self.kind

    @property
    def rectangular(self) -> bool:
        return self.kind == RECTANGULAR


@dataclass(frozen=True)
class LambdaParams:
    """Distance parameters of the orthocentric system {H, A_1..A_{d+1}}:
    every squared mutual distance is a sum of two of them and their
    reciprocals sum to zero."""

    lam_h: float
    lam: np.ndarray

    @property
    def all_values(self) -> np.ndarray:
        return np.concatenate(([self.lam_h], self.lam))


@dataclass(frozen=True)
class AltitudeData:
    feet: np.ndarray     # row i: foot of the perpendicular from vertex i
    lengths: np.ndarray  # altitude lengths h_i


@dataclass(frozen=True)
class EdgeAltitudeData:
    altitudes: AltitudeData
    sq_edges: np.ndarray  # (d+1) x (d+1) squared-edge table


@dataclass(frozen=True)
class CircumData:
    """Circumcenter location and squared radii from the shape parameters."""

    center: np.ndarray
    r_squared: float
    interior: bool
    _params: OrthoParams = field(repr=False)

    def face_r_squared(self, index_set) -> float:
        """Squared circumradius of the face on the given vertex indices:
        4 R_F^2 / sigma = (k-1)^2 / s - sum_{i in I} 1/a_i, s = sum_{i in I} a_i."""
        p = self._params
        idx = sx._check_indices(p.dim + 1, index_set)
        if not idx:
            raise InputError("a face needs at least one vertex")
        k = len(idx) - 1
        s = float(p.bary[list(idx)].sum())
        inv = float(np.sum(1.0 / p.bary[list(idx)]))
        return p.obtuseness / 4.0 * ((k - 1) ** 2 / s - inv)


def _validate_bary(a: np.ndarray, policy: TolerancePolicy) -> int:
    """Check the admissible sign pattern; return +1 for the one-positive
    (obtuse) pattern, -1 for the all-positive (acute) pattern."""
    n = a.size
    if not np.isfinite(a).all():
        raise ParametrizationError("barycentric coordinates must be finite")
    total = float(a.sum())
    if abs(total - 1.0) > policy.rel:
        raise ParametrizationError(f"barycentric coordinates must sum to 1, got {total!r}")
    pos = int(np.count_nonzero(a > 0))
    if pos == n:
        sign = -1
    elif pos == 1:
        sign = 1
    else:
        raise ParametrizationError(
            f"{pos} positive coordinates out of {n}: need all positive or exactly one"
        )
    # no nonempty proper subset may sum to 0 or 1 (margin = rel), so no
    # coordinate may vanish.  For an admissible sign pattern the closest
    # subset sum misses by min |a_i|: acute, singletons and their complements
    # are extreme; obtuse, sums without the positive entry are <= -min |a_i|
    # and sums with it are >= 1 + min |a_i|.
    if float(np.abs(a).min()) <= policy.rel:
        k = int(np.abs(a).argmin())
        raise ParametrizationError(
            f"subset sum {float(a[k])!r} too close to the forbidden values 0/1"
        )
    return sign


def params_of(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> OrthoParams:
    """Recover (barycentrics of H, obtuseness, class) from coordinates.

    A simplex that is not orthocentric (:func:`is_orthocentric`) raises
    NotOrthocentricError naming its squared-edge misfit.  The obtuseness
    is averaged over all vertex pairs with a consistency check, since
    (H - A_i) . (H - A_j) is constant only up to round-off.
    """
    if not is_orthocentric(s, policy):
        raise NotOrthocentricError(
            f"edge perpendicularity residual {sx.edge_perpendicularity_residual(s):.3e}"
            f" exceeds tolerance {policy.rel:g}"
        )
    _, gram, c, dev = centers._monge_gram(s)
    diam = sx.diameter(s)
    # the gate admits a squared-edge misfit up to rel * diam^2, so the
    # consistency allowance matches that scale
    if dev > max(policy.rel * abs(c), policy.rel * diam**2):
        raise NotOrthocentricError(
            f"pairwise obtuseness values deviate by {dev:.3e}; not orthocentric"
        )
    if abs(c) <= policy.rank_cut * diam**2:
        corner = int(np.argmin(np.diag(gram)))
        bary = np.zeros(s.n)
        bary[corner] = 1.0
        return OrthoParams(
            dim=s.dim, bary=bary, obtuseness=0.0, kind=RECTANGULAR, rect_vertex=corner
        )
    bary = sx.barycentric(s, centers.monge_point(s))
    kind = ACUTE if c < 0 else OBTUSE
    _validate_bary(bary, policy)
    return OrthoParams(dim=s.dim, bary=bary, obtuseness=c, kind=kind)


def construct(
    bary, scale: float = 1.0, policy: TolerancePolicy = DEFAULT_POLICY
) -> sx.Simplex:
    """Build the orthocentric simplex with the given orthocenter
    barycentrics and |obtuseness| = scale.

    The sign of the obtuseness is forced by the coordinates: negative when
    all are positive, positive when exactly one is.  The vertices come from
    the closed-form LDL^T factorization of the Gram matrix (no eigensolve):
    orthocenter at the origin, vertex matrix lower triangular with positive
    diagonal, so the first vertex lies on the positive first axis (canonical
    pose) and output is reproducible.  ``from_vertices`` makes the one
    degeneracy decision.
    """
    a = np.asarray(bary, dtype=float)
    if a.ndim != 1 or a.size < 3:
        raise ParametrizationError("need at least 3 barycentric coordinates (d >= 2)")
    if not (scale > 0) or not np.isfinite(scale):
        raise ParametrizationError(f"scale must be a positive number, got {scale!r}")
    sign = _validate_bary(a, policy)
    return sx.from_vertices(a.size - 1, _ldl_pose(a, sign * scale), policy)


def _ldl_pose(a: np.ndarray, sigma: float) -> np.ndarray:
    """Vertices about the orthocenter whose Gram matrix is sigma (J - diag(1/a)),
    read off its LDL^T factorization in O(d^2).

    With t_k = sum_{j>k} a_j and t_{-1} = 1, column k (k < d) has the pivot
    p_k = -sigma t_k / (a_k t_{k-1}) > 0, entry sqrt(p_k) on the diagonal and
    -(a_k / t_k) sqrt(p_k) below it; above the diagonal it is 0.  The vertex
    matrix is lower triangular with positive diagonal, the unique such pose.
    An obtuse tuple's suffix sums before its positive entry would cancel, so
    there t_k = 1 - sum_{j<=k} a_j, a sum of positive terms.
    """
    d = a.size - 1
    t = np.cumsum(a[::-1])[::-1][1:]
    neg = np.logical_and.accumulate(a[:d] < 0)
    t[neg] = 1.0 - np.cumsum(a[:d])[neg]
    root = np.sqrt(-sigma * t / (a[:d] * np.concatenate(([1.0], t[:-1]))))
    pts = np.where(_pose_mask(d + 1), -(a[:d] / t) * root, 0.0)
    pts.flat[:: d + 1] = root
    return pts


@lru_cache(maxsize=64)
def _pose_mask(n: int) -> np.ndarray:
    """Read-only n x (n-1) mask of the entries below the diagonal of a pose;
    built once per n and shared."""
    return sx._read_only(np.tri(n, n - 1, -1, dtype=bool))


def edge_and_altitude_data(
    p: OrthoParams, s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> EdgeAltitudeData:
    """Evaluate the closed-form edge and altitude families

        |A_i - H|^2   = c (a_i - 1) / a_i
        |A_i - A_j|^2 = -c (1/a_i + 1/a_j)
        B_i - H       = a_i / (a_i - 1) (A_i - H)
        h_i^2         = c / (a_i (a_i - 1))

    and cross-check each against direct coordinate computation.
    """
    if p.rectangular:
        raise RectangularParamsError(
            "edge/altitude formulas are undefined for rectangular parameters"
        )
    rel_h, gram = centers._monge_gram(s)[:2]
    a = p.bary
    c = p.obtuseness
    diam = sx.diameter(s)
    # both tolerances scale with the simplex: no absolute floor
    tol_sq = policy.rel * diam**2
    tol = policy.rel * diam
    a_less_1 = a - 1.0

    sq_vertex = c * a_less_1 / a
    if np.abs(sq_vertex - gram.diagonal()).max() > tol_sq:
        raise NotOrthocentricError("vertex-to-orthocenter formula check failed")

    inv = 1.0 / a
    sq_edges = -c * (inv[:, None] + inv[None, :])
    sq_edges.flat[:: a.size + 1] = 0.0
    if np.abs(sq_edges - sx.squared_edge_table(s)).max() > tol_sq:
        raise NotOrthocentricError("squared-edge formula check failed")

    feet = centers.monge_point(s) + (a / a_less_1)[:, None] * rel_h
    lengths = np.sqrt(c / (a * a_less_1))
    if sx._row_norms(feet - sx.altitude_feet(s)).max() > tol:
        raise NotOrthocentricError("altitude-foot formula check failed")
    if np.abs(lengths - sx._row_norms(s.vertices - feet)).max() > tol:
        raise NotOrthocentricError("altitude-length formula check failed")

    return EdgeAltitudeData(
        altitudes=AltitudeData(feet=feet, lengths=lengths), sq_edges=sq_edges
    )


def restrict_to_face(p: OrthoParams, index_set) -> OrthoParams:
    """Shape parameters of the face on the given vertex indices:
    a'_j = a_j / s and sigma' = sigma / s with s the selected coordinate sum."""
    if p.rectangular:
        raise RectangularParamsError("face restriction is undefined for rectangular parameters")
    idx = sx._check_indices(p.dim + 1, index_set)
    if len(idx) < 3:
        raise InputError("face restriction needs at least 3 vertices (dim >= 2)")
    s = float(p.bary[list(idx)].sum())
    if s == 0.0:
        raise ParametrizationError(f"coordinate sum over face {idx} vanishes")
    a = p.bary[list(idx)] / s
    c = p.obtuseness / s
    kind = ACUTE if c < 0 else OBTUSE
    return OrthoParams(dim=len(idx) - 1, bary=a, obtuseness=c, kind=kind)


def circum_data(
    p: OrthoParams, s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> CircumData:
    """Circumcenter, squared circumradius and interiority from parameters:

        C = (A_1 + ... + A_{d+1}) / 2 - (d-1)/2 H
        4 R^2 / sigma = (d-1)^2 - sum 1/a_i

    The circumcenter is interior exactly when all a_i lie in (0, 1/(d-1)).
    """
    if p.rectangular:
        raise RectangularParamsError("parameter circumdata is undefined for rectangular input")
    h = centers.monge_point(s)
    d = p.dim
    center = s.vertices.sum(axis=0) / 2.0 - (d - 1) / 2.0 * h
    r2 = p.obtuseness / 4.0 * ((d - 1) ** 2 - float((1.0 / p.bary).sum()))
    interior = bool((p.bary > 0).all() and (p.bary < 1.0 / (d - 1)).all())
    return CircumData(center=center, r_squared=r2, interior=interior, _params=p)


def lambda_params(p: OrthoParams) -> LambdaParams:
    """Distance parameters lam_H = sigma, lam_i = -sigma / a_i for the
    orthocentric system {H, A_1..A_{d+1}}."""
    if p.rectangular:
        raise RectangularParamsError("lambda parameters are undefined for rectangular input")
    return LambdaParams(lam_h=p.obtuseness, lam=-p.obtuseness / p.bary)


def orthocentric_system_check(
    points, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True when the d+2 points form an orthocentric system: each point is
    the orthocenter of the simplex spanned by the other d+1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 2:
        raise InputError(f"need d+2 points in d-space, got shape {pts.shape}")
    d = pts.shape[1]
    diffs = pts[:, None, :] - pts[None, :, :]
    diam = float(np.max(np.linalg.norm(diffs, axis=-1)))
    for omit in range(d + 2):
        rest = np.delete(pts, omit, axis=0)
        s = sx.from_vertices(d, rest, policy)  # degenerate subset raises
        if not is_orthocentric(s, policy):
            return False
        h = centers.monge_point(s)
        if np.linalg.norm(h - pts[omit]) > policy.rel * diam:
            return False
    return True


def sample_params(d: int, kind: str, seed: int) -> OrthoParams:
    """Deterministic random shape parameters of the requested class.

    Acute: uniform on the open coordinate simplex, rejecting draws with a
    coordinate below the margin m = min(0.01, 2/(d+1)^2), which keeps the
    numerics away from the degenerate hyperplanes (subset sums of 0 or 1
    come no closer than the smallest coordinate).  A uniform draw clears
    the margin with probability P = (1 - (d+1) m)^d, which tends to
    exp(-2) as d grows.  Draws come in blocks of ceil(2/P) rows from one
    ``dirichlet`` call, and the first row that clears the margin is
    returned; numpy fills the rows one after another from the same stream,
    so this is the draw a one-at-a-time loop would return, and a block
    succeeds with probability at least 1 - exp(-2).  Obtuse: d coordinates
    drawn in (-1, -0.05), the last set to one minus their sum.
    """
    if kind not in (ACUTE, OBTUSE):
        raise InputError(f"kind must be '{ACUTE}' or '{OBTUSE}', got {kind!r}")
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if int(seed) < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    code = 0 if kind == ACUTE else 1
    rng = np.random.default_rng(np.random.SeedSequence([17, d, code, int(seed)]))
    if kind == OBTUSE:
        u = rng.uniform(0.05, 1.0, size=d)
        a = np.concatenate([-u, [1.0 + float(u.sum())]])
        return OrthoParams(dim=d, bary=a, obtuseness=1.0, kind=kind)
    margin = min(0.01, 2.0 / (d + 1) ** 2)
    block = ceil(2.0 / (1.0 - (d + 1) * margin) ** d)
    while True:
        rows = rng.dirichlet(np.ones(d + 1), size=block)
        hit = rows.min(axis=1) >= margin
        k = int(hit.argmax())
        if hit[k]:
            return OrthoParams(dim=d, bary=rows[k].copy(), obtuseness=-1.0, kind=kind)
