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
x_i = -1/a_i.  Construction inverts this: build G from the coordinates,
embed the positive-semidefinite one of +/- sigma G, and read the vertices
off its factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSimplexError,
    InputError,
    NotOrthocentricError,
    ParametrizationError,
    RectangularParamsError,
)
from .numerics import DEFAULT_POLICY, SymMatrix, TolerancePolicy, gram_embed
from . import centers
from . import simplex as sx

__all__ = [
    "OrthoParams",
    "OrthoGramForm",
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
class OrthoGramForm:
    """Gram data of a non-rectangular orthocentric simplex about its
    orthocenter: scale |sigma|, its sign, and x_i = -1/a_i.

    The Gram matrix is sign * scale * G with G_ii = 1 + x_i and unit
    off-diagonal entries; its diagonal sign*scale*(1+x_i) equals
    |A_i - H|^2.
    """

    scale: float
    sign: int
    x: np.ndarray

    @classmethod
    def from_params(cls, p: OrthoParams) -> "OrthoGramForm":
        if p.rectangular:
            raise RectangularParamsError("Gram form is undefined for rectangular parameters")
        return cls(scale=abs(p.obtuseness), sign=1 if p.obtuseness > 0 else -1, x=-1.0 / p.bary)

    def matrix(self) -> np.ndarray:
        n = self.x.size
        g = np.ones((n, n)) + np.diag(self.x)
        return self.sign * self.scale * g


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
    if not np.all(np.isfinite(a)):
        raise ParametrizationError("barycentric coordinates must be finite")
    if abs(float(a.sum()) - 1.0) > policy.abs * n:
        raise ParametrizationError(
            f"barycentric coordinates must sum to 1, got {float(a.sum())!r}"
        )
    if np.any(np.abs(a) <= policy.abs):
        raise ParametrizationError("no barycentric coordinate may vanish")
    pos = int(np.count_nonzero(a > 0))
    if pos == n:
        sign = -1
    elif pos == 1:
        sign = 1
    else:
        raise ParametrizationError(
            f"{pos} positive coordinates out of {n}: need all positive or exactly one"
        )
    # no nonempty proper subset may sum to 0 or 1 (margin = rel).  For an
    # admissible sign pattern the closest subset sum misses by min |a_i|:
    # acute, singletons and their complements are extreme; obtuse, sums
    # without the positive entry are <= -min |a_i| and sums with it are
    # >= 1 + min |a_i|.
    k = int(np.argmin(np.abs(a)))
    if abs(float(a[k])) <= policy.rel:
        raise ParametrizationError(
            f"subset sum {float(a[k])!r} too close to the forbidden values 0/1"
        )
    return sign


def params_of(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> OrthoParams:
    """Recover (barycentrics of H, obtuseness, class) from coordinates.

    The obtuseness is averaged over all vertex pairs with a consistency
    check, since (H - A_i) . (H - A_j) is constant only up to round-off.
    """
    if not is_orthocentric(s, policy):
        # the decision computed the O(d^5) residual only if lo did not decide
        lo = sx._perpendicularity_bounds(s)[0]
        found = f">= {lo:.3e}" if lo > policy.rel else f"{sx.edge_perpendicularity_residual(s):.3e}"
        raise NotOrthocentricError(
            f"edge perpendicularity residual {found} exceeds tolerance {policy.rel:g}"
        )
    _, gram, c, dev = centers._monge_gram(s)
    diam = sx.diameter(s)
    # the edge-perpendicularity gate at residual rel admits pair deviations
    # up to ~rel * diam^2, so the consistency allowance matches that scale
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
    all are positive, positive when exactly one is.  The embedding puts the
    orthocenter at the origin and the first vertex on the positive first
    axis (canonical pose), so output is reproducible.
    """
    a = np.asarray(bary, dtype=float)
    if a.ndim != 1 or a.size < 3:
        raise ParametrizationError("need at least 3 barycentric coordinates (d >= 2)")
    if not (scale > 0) or not np.isfinite(scale):
        raise ParametrizationError(f"scale must be a positive number, got {scale!r}")
    sign = _validate_bary(a, policy)
    d = a.size - 1
    form = OrthoGramForm(scale=scale, sign=sign, x=-1.0 / a)
    pts = gram_embed(SymMatrix(form.matrix(), policy), policy)
    if pts.shape[1] != d:
        raise DegenerateSimplexError(
            f"parameters embed at rank {pts.shape[1]} < {d} at rank_cut={policy.rank_cut:g}"
        )
    pts = _canonical_pose(pts)
    return sx.from_vertices(d, pts, policy)


def _canonical_pose(pts: np.ndarray) -> np.ndarray:
    """Rotate so the vertex matrix is lower triangular with positive
    diagonal (orthocenter stays at the origin).  Any d of the d+1 position
    vectors are linearly independent, so the first d rows suffice."""
    d = pts.shape[1]
    q, r = np.linalg.qr(pts[:d].T)
    flip = np.sign(np.diag(r))
    flip[flip == 0] = 1.0
    return pts @ (q * flip)


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
    tol = policy.rel * diam**2

    sq_vertex = c * (a - 1.0) / a
    if np.max(np.abs(sq_vertex - np.diag(gram))) > max(tol, policy.abs):
        raise NotOrthocentricError("vertex-to-orthocenter formula check failed")

    inv = 1.0 / a
    sq_edges = -c * (inv[:, None] + inv[None, :])
    np.fill_diagonal(sq_edges, 0.0)
    if np.max(np.abs(sq_edges - sx.squared_edge_table(s))) > max(tol, policy.abs):
        raise NotOrthocentricError("squared-edge formula check failed")

    feet = centers.monge_point(s) + (a / (a - 1.0))[:, None] * rel_h
    lengths = np.sqrt(c / (a * (a - 1.0)))
    foot_err = np.linalg.norm(feet - sx.altitude_feet(s), axis=1)
    if np.max(foot_err) > max(policy.rel * diam, policy.abs):
        raise NotOrthocentricError("altitude-foot formula check failed")
    measured_len = np.linalg.norm(s.vertices - feet, axis=1)
    if np.max(np.abs(lengths - measured_len)) > max(policy.rel * diam, policy.abs):
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
    r2 = p.obtuseness / 4.0 * ((d - 1) ** 2 - float(np.sum(1.0 / p.bary)))
    interior = bool(np.all(p.bary > 0) and np.all(p.bary < 1.0 / (d - 1)))
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
    coordinate below min(0.01, 2/(d+1)^2).  The margin keeps the numerics
    away from the degenerate hyperplanes (subset sums of 0 or 1 come no
    closer than the smallest coordinate) while the acceptance rate stays
    near exp(-2) at large d.  Obtuse: d coordinates drawn in (-1, -0.05),
    the last set to one minus their sum.
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
    while True:
        a = rng.dirichlet(np.ones(d + 1))
        if float(np.min(a)) >= margin:
            return OrthoParams(dim=d, bary=a, obtuseness=-1.0, kind=kind)
