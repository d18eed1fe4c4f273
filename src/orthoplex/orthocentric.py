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


def _validate_bary(a: np.ndarray, policy: TolerancePolicy):
    """Check the admissible sign pattern of each row of ``a`` (..., n);
    return, per row, True for the one-positive (obtuse) pattern and False
    for the all-positive (acute) one.  The first row that fails raises what
    a loop over the rows would: its first failed test, with its values."""
    n = a.shape[-1]
    with np.errstate(invalid="ignore"):  # inf - inf: a row that is not finite fails
        total = a.sum(axis=-1)
    pos = np.add.reduce(a > 0, axis=-1)
    summed = abs(total - 1.0) <= policy.rel
    pattern = (pos == n) | (pos == 1)
    # no nonempty proper subset may sum to 0 or 1 (margin = rel), so no
    # coordinate may vanish.  For an admissible sign pattern the closest
    # subset sum misses by min |a_i|: acute, singletons and their complements
    # are extreme; obtuse, sums without the positive entry are <= -min |a_i|
    # and sums with it are >= 1 + min |a_i|.
    margin = abs(a).min(axis=-1) > policy.rel
    ok = summed & pattern & margin
    if not all(ok.flat):
        r = np.unravel_index(int(ok.argmin()), ok.shape)
        row = a[r]
        if not np.isfinite(row).all():
            raise ParametrizationError("barycentric coordinates must be finite")
        if not summed[r]:
            raise ParametrizationError(
                f"barycentric coordinates must sum to 1, got {float(total[r])!r}")
        if not pattern[r]:
            raise ParametrizationError(
                f"{int(pos[r])} positive coordinates out of {n}: need all positive or exactly one"
            )
        raise ParametrizationError(
            f"subset sum {float(row[np.abs(row).argmin()])!r} too close to the forbidden values 0/1"
        )
    return pos == 1


def _param_rows(s: sx.Simplex, policy: TolerancePolicy):
    """(sigma, rectangular, corner, bary) of :func:`params_of` on one simplex
    or each of a stack, read from the Monge-point Gram table and the
    barycentric table: sigma the mean off-diagonal Gram entry, bary the
    barycentrics of the Monge point, which the caller checks with
    :func:`_validate_bary` where it needs them, and corner the first vertex
    within rel of its largest coordinate (ties name one corner).
    Rectangular is decided in the unit of that check's margin:
    where some |a_j| <= rel, the simplex is rectangular at the corner (near
    a right corner |a_j| ~ |sigma| / h_j^2 for every other vertex j), so a
    simplex is rectangular exactly where its coordinates fail the margin.
    Raises NotOrthocentricError unless every simplex is orthocentric."""
    orthocentric = is_orthocentric(s, policy)
    if not all(np.ravel(orthocentric)):
        residual = np.ravel(sx.edge_perpendicularity_residual(s))[np.argmin(orthocentric)]
        raise NotOrthocentricError(
            f"edge perpendicularity residual {residual:.3e} exceeds tolerance {policy.rel:g}"
        )
    sigma = centers._monge_gram(s)[2]
    bary = sx.barycentric(s, centers.monge_point(s))
    rectangular = np.abs(bary).min(axis=-1) <= policy.rel
    corner = (bary >= bary.max(axis=-1, keepdims=True) - policy.rel).argmax(axis=-1)
    return sigma, rectangular, corner, bary


def params_of(s: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> OrthoParams:
    """Recover (barycentrics of H, obtuseness, class) from coordinates.

    A simplex that is not orthocentric (:func:`is_orthocentric`, the one
    test) raises NotOrthocentricError naming its squared-edge misfit.  The
    obtuseness is the mean of (H - A_i) . (H - A_j) over all vertex pairs,
    H the Monge point.  Those values spread by misfit * max E / 2 (E the
    squared-edge table), at most rel * diam^2 / 2 once the test passes.
    The simplex is rectangular, at the first vertex within rel of H's largest
    barycentric coordinate, where a coordinate is within rel of 0, the margin
    :func:`construct` asks of a tuple; so that margin never leaves an
    orthocentric simplex without parameters.
    """
    c, rectangular, corner, bary = _param_rows(s, policy)
    if rectangular:
        bary = np.zeros(s.n)
        bary[corner] = 1.0
        return OrthoParams(
            dim=s.dim, bary=bary, obtuseness=0.0, kind=RECTANGULAR, rect_vertex=int(corner)
        )
    _validate_bary(bary, policy)
    return OrthoParams(dim=s.dim, bary=bary, obtuseness=c, kind=ACUTE if c < 0 else OBTUSE)


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
    if not 0 < scale < np.inf:
        raise ParametrizationError(f"scale must be a positive number, got {scale!r}")
    sigma = scale if _validate_bary(a, policy) else -scale
    return sx.from_vertices(a.size - 1, _ldl_pose(a, sigma), policy)


def _construct_rows(bary: np.ndarray, scale: float, policy: TolerancePolicy) -> list[sx.Simplex]:
    """:func:`construct` on each row of ``bary`` (k, d+1) at once: one
    barycentric test, one pose and one degeneracy decision for the stack.
    Each simplex equals its ``construct``, bit for bit; the first row that
    fails raises what its ``construct`` would."""
    sigma = np.where(_validate_bary(bary, policy), scale, -scale)
    pose = _ldl_pose(bary, sigma[:, None])
    return sx._from_vertex_rows(bary.shape[-1] - 1, pose, policy)


def _ldl_pose(a: np.ndarray, sigma) -> np.ndarray:
    """Vertices about the orthocenter whose Gram matrix is sigma (J - diag(1/a)),
    read off its LDL^T factorization in O(d^2); for a stack of tuples ``a``
    (..., d+1), ``sigma`` is a number or an array (..., 1).

    With t_k = sum_{j>k} a_j and t_{-1} = 1, column k (k < d) has the pivot
    p_k = -sigma t_k / (a_k t_{k-1}) > 0, entry sqrt(p_k) on the diagonal and
    -(a_k / t_k) sqrt(p_k) below it; above the diagonal it is 0.  The vertex
    matrix is lower triangular with positive diagonal, the unique such pose.
    An obtuse tuple's suffix sums before its positive entry would cancel, so
    there t_k = 1 - sum_{j<=k} a_j, a sum of positive terms.
    """
    d = a.shape[-1] - 1
    head = a[..., :d]
    t = a[..., ::-1].cumsum(-1)[..., -2::-1]
    t = np.where(np.logical_and.accumulate(head < 0, axis=-1), 1.0 - head.cumsum(-1), t)
    before = np.empty(t.shape)  # t_{k-1}
    before[..., 0] = 1.0
    before[..., 1:] = t[..., :-1]
    root = np.sqrt(-sigma * t / (head * before))
    pts = np.where(_pose_mask(d + 1), (-(head / t) * root)[..., None, :], 0.0)
    pts.reshape(pts.shape[:-2] + (-1,))[..., :: d + 1] = root  # the diagonal
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
    values = _lambda_rows(p.obtuseness, p.bary)
    return LambdaParams(lam_h=float(values[0]), lam=values[1:])


def _lambda_rows(sigma, bary: np.ndarray) -> np.ndarray:
    """(lam_H, lam_1..lam_{d+1}) = (sigma, -sigma / a_i) of
    :func:`lambda_params`, for one tuple or each row of a stack (sigma of
    shape (...), ``bary`` of shape (..., d+1))."""
    sigma = np.asarray(sigma)[..., None]
    return np.concatenate((sigma, -sigma / bary), axis=-1)


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
    """Deterministic random shape parameters of the requested class: the
    one row of :func:`_sample_rows` (k = 1) drawn from the generator of
    ``SeedSequence([17, d, code, seed])``, code 0 acute and 1 obtuse."""
    if kind not in (ACUTE, OBTUSE):
        raise InputError(f"kind must be '{ACUTE}' or '{OBTUSE}', got {kind!r}")
    if not sx._is_int(d) or d < 2:
        raise InputError(f"dimension must be an integer >= 2, got {d!r}")
    if not sx._is_int(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    code = 0 if kind == ACUTE else 1
    rng = np.random.default_rng(np.random.SeedSequence([17, d, code, int(seed)]))
    bary = _sample_rows(d, kind, 1, rng)[0].copy()
    return OrthoParams(dim=d, bary=bary, obtuseness=1.0 if kind == OBTUSE else -1.0, kind=kind)


def _sample_rows(d: int, kind: str, k: int, rng: np.random.Generator) -> np.ndarray:
    """k tuples (k, d+1) of orthocenter barycentrics of the requested class,
    drawn from ``rng``; the block owns its data.

    Acute: uniform on the open coordinate simplex, rejecting rows with a
    coordinate below the margin m = min(0.01, 2/(d+1)^2), which keeps the
    numerics away from the degenerate hyperplanes (subset sums of 0 or 1
    come no closer than the smallest coordinate).  A uniform row clears
    the margin with probability P = (1 - (d+1) m)^d, which tends to
    exp(-2) as d grows.  Rows come in blocks of ceil(2k/P) from one
    ``dirichlet`` call, and the first k rows that clear the margin are
    returned; numpy fills the rows one after another from the same stream,
    so these are the rows a one-at-a-time loop would return, whatever the
    block size.  Obtuse: d coordinates per row drawn in (-1, -0.05) by one
    ``uniform`` call, the last set to one minus their sum; k successive
    one-row draws give the same rows.
    """
    out = np.empty((k, d + 1))
    if kind == OBTUSE:
        u = rng.uniform(0.05, 1.0, size=(k, d))
        np.negative(u, out=out[:, :d])
        np.add(1.0, u.sum(axis=1), out=out[:, d])
        return out
    margin = min(0.01, 2.0 / (d + 1) ** 2)
    block = ceil(2.0 * k / (1.0 - (d + 1) * margin) ** d)
    got = 0
    while got < k:
        rows = rng.dirichlet(_dirichlet_weights(d + 1), size=block)
        hit = rows.compress(rows.min(axis=1) >= margin, axis=0)[: k - got]
        out[got:got + len(hit)] = hit
        got += len(hit)
    return out


@lru_cache(maxsize=64)
def _dirichlet_weights(n: int) -> np.ndarray:
    """Read-only vector of n ones, the weights of the uniform Dirichlet draw
    in :func:`_sample_rows`; built once per n and shared."""
    return sx._read_only(np.ones(n))
