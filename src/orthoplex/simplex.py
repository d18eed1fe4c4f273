"""Simplex representation, faces, volumes and shape predicates.

A :class:`Simplex` is d+1 vertices in d-space, validated for affine
independence on construction.  Faces are re-embedded isometrically into
their intrinsic dimension so that every operation in the package applies
uniformly at any level; only the edge-length table of a face is
contractual, not its vertex positions.

Vertex indices are 0-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import exp, factorial, inf, isfinite, lgamma, log, sqrt
from numbers import Integral
from sys import float_info

import numpy as np

from .errors import DegenerateSimplexError, InputError, NumericError
from .numerics import DEFAULT_POLICY, SymMatrix, TolerancePolicy, gram_embed

__all__ = [
    "Simplex",
    "ShapeFlags",
    "from_vertices",
    "volume",
    "face",
    "shape_predicates",
    "edge_lengths",
    "squared_edge_table",
    "diameter",
    "facet_indices",
    "facet_volumes",
    "facet_circumradii",
    "facet_sq_edge_sums",
    "barycentric",
    "project_to_affine_hull",
    "altitude_feet",
    "edge_perpendicularity_residual",
]


@dataclass(frozen=True)
class Simplex:
    """d+1 affinely independent vertices in d-space (d >= 1).

    Tables derived from the vertices alone are computed once per simplex
    and stored in ``_memo`` (see :func:`_per_simplex`); the vertices are
    read-only, so a stored table cannot go stale.
    """

    dim: int
    vertices: np.ndarray  # shape (dim+1, dim), read-only
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.dim + 1

    def __repr__(self):
        return f"Simplex(dim={self.dim})"


@dataclass(frozen=True)
class ShapeFlags:
    is_regular: bool
    is_equiareal: bool
    is_equiradial: bool
    has_well_distributed_edges: bool


def from_vertices(dim, vertices, policy: TolerancePolicy = DEFAULT_POLICY) -> Simplex:
    """Validate and build a Simplex from dim+1 coordinate vectors.

    Degeneracy is decided on the eigenvalue ratio of the edge-vector Gram
    matrix, so the test is invariant under similarity.
    """
    if not _is_int(dim) or dim < 1:
        raise InputError(f"dimension must be an integer >= 1, got {dim!r}")
    try:
        arr = np.array(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"vertices are not a numeric array: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (dim + 1, dim):
        raise InputError(
            f"expected {dim + 1} vertices of length {dim}, got array of shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InputError("vertex coordinates must be finite")
    with np.errstate(over="ignore"):  # the isfinite test below decides
        edges = arr[:-1] - arr[-1]
        g = edges @ edges.T
    if not np.isfinite(g).all():
        raise InputError("vertex coordinates are too large: edge inner products overflow")
    try:
        vals = np.linalg.eigvalsh(g)  # ascending
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolve failed to converge: {exc}") from exc
    lam_max = float(vals[-1])
    ratio = float(vals[0]) / lam_max if lam_max > 0 else 0.0
    if lam_max <= 0 or ratio <= policy.rank_cut:
        raise DegenerateSimplexError(
            f"vertices are affinely dependent (eigenvalue ratio {ratio:.3e})",
            eigen_ratio=ratio,
        )
    arr.flags.writeable = False
    return Simplex(dim=dim, vertices=arr)


def _read_only(value):
    """``value``, an array or a tuple, with every array in it made read-only."""
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return value


def _per_simplex(fn):
    """Run ``fn(s)`` once per simplex: the result is stored in ``s._memo``
    with every array in it (also the items of a tuple) made read-only, and
    later calls return that same object."""

    @wraps(fn)
    def memoized(s: Simplex):
        if fn not in s._memo:
            s._memo[fn] = _read_only(fn(s))
        return s._memo[fn]

    return memoized


_FLOAT_MAX = float_info.max
_LOG_FLOAT_MAX = log(_FLOAT_MAX)
# the largest d whose d! is a finite float
_MAX_FACTORIAL_DIM = 170


def _factorial_quotient(k: int, direct, log_value: float) -> float:
    """A positive quotient by k! that never raises or warns: ``direct()``,
    the formula as written, where k! and its result are finite floats;
    otherwise exp(log_value), 0.0 where that underflows and the largest
    float where it overflows (``log_value`` is the log of the quotient)."""
    if k <= _MAX_FACTORIAL_DIM:
        try:
            value = direct()
        except OverflowError:
            value = inf
        if isfinite(value):
            return value
    return _FLOAT_MAX if log_value >= _LOG_FLOAT_MAX else exp(log_value)


@_per_simplex
def volume(s: Simplex) -> float:
    """d-volume, |det e| / d! for the edge matrix e of :func:`_frame`, read
    from ``slogdet`` (``det`` is sign * exp(log|det|) from the same LU),
    out of float range by :func:`_factorial_quotient`."""
    logdet = float(np.linalg.slogdet(_frame(s)[1])[1])
    d = s.dim
    return _factorial_quotient(d, lambda: exp(logdet) / factorial(d), logdet - lgamma(d + 1))


@lru_cache(maxsize=64)
def _pair_index(n: int):
    """Read-only (i, j): the index pairs i < j of n vertices, lexicographic
    (``combinations`` order); built once per n and shared."""
    r = np.arange(n)
    return _read_only(np.nonzero(r[:, None] < r))


@_per_simplex
def _pairs(s: Simplex):
    """Vertex pairs i < j (lexicographic, :func:`_pair_index`) and
    |A_i - A_j|^2, the last as stacked 1 x d by d x 1 products (rooted, the
    bits of ``np.linalg.norm``)."""
    i, j = _pair_index(s.n)
    e = s.vertices[i] - s.vertices[j]
    return i, j, np.matmul(e[:, None, :], e[:, :, None])[:, 0, 0]


@_per_simplex
def edge_lengths(s: Simplex) -> np.ndarray:
    """All C(d+1, 2) edge lengths, in lexicographic (i < j) order."""
    return np.sqrt(_pairs(s)[2])


@_per_simplex
def squared_edge_table(s: Simplex) -> np.ndarray:
    """(d+1) x (d+1) table of squared distances, zero diagonal."""
    i, j, sq = _pairs(s)
    table = np.zeros((s.n, s.n))
    table[i, j] = table[j, i] = sq
    return table


@_per_simplex
def diameter(s: Simplex) -> float:
    return float(edge_lengths(s).max())


@lru_cache(maxsize=64)
def _facet_table(n: int) -> np.ndarray:
    c = np.arange(n - 1)
    return _read_only(c + (c >= np.arange(n)[:, None]))


def facet_indices(s: Simplex) -> np.ndarray:
    """(d+1) x d vertex-index table; row i is the facet opposite vertex i.
    Read-only, built once per d and shared by every d-simplex."""
    return _facet_table(s.n)


@_per_simplex
def _frame(s: Simplex):
    """(b, e, normals, sizes, c): the dual basis of the edges e = A_rest - A_b
    at the base vertex b (least squared-edge row sum, the first on ties, so
    similarity-invariant), read by every center, volume and facet quantity.
    Row i of ``normals`` is n_i, the gradient of the i-th barycentric
    coordinate (rows of e^-T, and minus their sum), |n_i| = ``sizes[i]`` =
    1 / h_i; c = C - A_b solves 2 e c = |e|^2.
    """
    sq = squared_edge_table(s)
    b = int(sq.sum(axis=1).argmin())
    rest = facet_indices(s)[b]
    e = s.vertices[rest] - s.vertices[b]
    try:
        inv = np.linalg.inv(e)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid simplex
        raise NumericError(f"edge matrix is singular: {exc}") from exc
    normals = np.empty((s.n, s.dim))
    normals[rest] = inv.T
    normals[b] = -inv.sum(axis=1)
    c = inv @ (sq[b, rest] / 2.0)
    return b, e, normals, _row_norms(normals), c


def _norm(v: np.ndarray) -> float:
    """|v| of a vector, the bits of ``np.linalg.norm`` (its square is v . v)."""
    return sqrt(v.dot(v))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """|v| along the last axis, the bits of ``np.linalg.norm(v, axis=-1)``."""
    return np.sqrt((v * v).sum(axis=-1))


def _weights(s: Simplex, q: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of A_b + q: n_i . q, and at the base vertex b
    what makes them sum to 1."""
    b, _, normals = _frame(s)[:3]
    w = normals @ q
    w[b] = 0.0
    w[b] = 1.0 - w.sum()
    return w


@_per_simplex
def facet_volumes(s: Simplex) -> np.ndarray:
    """(d-1)-volumes of all d+1 facets, facet i opposite vertex i:
    d V / h_i = d V |n_i|, at most the largest float (see :func:`volume`);
    the facets of a segment are points, of measure 1."""
    if s.dim == 1:
        return np.ones(2)
    with np.errstate(over="ignore"):
        return np.minimum(s.dim * volume(s) * _frame(s)[3], _FLOAT_MAX)


@_per_simplex
def facet_circumradii(s: Simplex) -> np.ndarray:
    """Circumradii of all d+1 facets, facet i opposite vertex i: the distance
    from the foot of C on the facet, C - (w_i / |n_i|^2) n_i with w the
    barycentrics of C, to a facet vertex (A_b, or A_rest[0] opposite b)."""
    b, e, normals, sizes, c = _frame(s)
    feet = c - (_weights(s, c) / sizes**2)[:, None] * normals
    feet[b] -= e[0]
    return _row_norms(feet)


def facet_sq_edge_sums(s: Simplex) -> np.ndarray:
    """Sum of squared edge lengths of each facet, facet i opposite vertex i:
    the total over all edges minus the edges at vertex i."""
    sq = squared_edge_table(s)
    return sq.sum() / 2.0 - sq.sum(axis=1)


def barycentric(s: Simplex, point) -> np.ndarray:
    """Barycentric coordinates of ``point`` with respect to the vertices."""
    return _weights(s, np.asarray(point, float) - s.vertices[_frame(s)[0]])


def face(s: Simplex, index_set, policy: TolerancePolicy = DEFAULT_POLICY) -> Simplex:
    """Face spanned by the selected vertices, re-embedded isometrically
    into (|I|-1)-space.  Vertex order follows the index set."""
    idx = _check_indices(s.n, index_set)
    if len(idx) < 2:
        raise InputError("a face needs at least 2 vertices")
    pts = s.vertices[list(idx)]
    centered = pts - pts.mean(axis=0)
    emb = gram_embed(SymMatrix(centered @ centered.T, policy), policy)
    k = len(idx) - 1
    # the embedding's rank is the degeneracy test, so from_vertices need not solve again
    if emb.shape[1] != k:
        raise DegenerateSimplexError(
            f"face {idx} embeds at rank {emb.shape[1]} < {k} at rank_cut={policy.rank_cut:g}"
        )
    emb.flags.writeable = False
    return Simplex(dim=k, vertices=emb)


def _is_int(x) -> bool:
    """True for an integer (numpy integers too), not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _check_indices(n: int, index_set) -> tuple[int, ...]:
    """``index_set`` as a tuple of ints: distinct vertex indices in [0, n).
    Entries must be integers (numpy integers too), not bools."""
    try:
        idx = tuple(index_set)
    except TypeError as exc:
        raise InputError(f"vertex indices must be an iterable, got {index_set!r}") from exc
    if not all(_is_int(i) for i in idx):
        raise InputError(f"vertex indices must be integers, got {idx!r}")
    idx = tuple(int(i) for i in idx)
    if len(set(idx)) != len(idx):
        raise InputError(f"duplicate vertex indices in {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise InputError(f"vertex index out of range in {idx}")
    return idx


def project_to_affine_hull(point, pts) -> np.ndarray:
    """Orthogonal projection of ``point`` onto the affine hull of ``pts``;
    leading axes broadcast, points (..., d) onto hulls (..., m, d)."""
    base = pts[..., 0, :]
    basis = pts[..., 1:, :] - base[..., None, :]
    rel = np.asarray(point, float) - base
    g = basis @ np.swapaxes(basis, -1, -2)
    coeff = np.linalg.solve(g, basis @ rel[..., None])
    return base + (np.swapaxes(coeff, -1, -2) @ basis)[..., 0, :]


def altitude_feet(s: Simplex) -> np.ndarray:
    """Row i: the foot of the altitude from vertex i, the projection of
    A_i onto the hull of the facet opposite it: A_i - n_i / |n_i|^2."""
    normals, sizes = _frame(s)[2:4]
    return s.vertices - normals / (sizes**2)[:, None]


def shape_predicates(s: Simplex, policy: TolerancePolicy = DEFAULT_POLICY) -> ShapeFlags:
    """Regular / equiareal / equiradial / well-distributed-edge tests.

    All four compare per-facet (or per-edge) quantities with max-relative
    scaling, so the flags are invariant under similarity.  Equiareal reads
    |n_i|, to which facet volume i = d V |n_i| is proportional, so it holds
    also where V is out of float range.
    """
    return ShapeFlags(
        is_regular=policy.all_close(edge_lengths(s)),
        is_equiareal=policy.all_close(_frame(s)[3]),
        is_equiradial=policy.all_close(facet_circumradii(s)),
        has_well_distributed_edges=policy.all_close(facet_sq_edge_sums(s)),
    )


@_per_simplex
def edge_perpendicularity_residual(s: Simplex) -> float:
    """Misfit of E_ij = l_i + l_j, the squared-edge form of orthocentricity:
    max over i < j of |E_ij - l_i - l_j| / max E, in O(d^2).

    With row sums r_i of E, l_i = (r_i - sum(r) / (2 (n-1))) / (n-2) is the
    least-squares fit; for an orthocentric simplex that is not rectangular
    it is ``orthocentric.lambda_params``.  Since
    (A_i - A_j) . (A_k - A_l) = (E_il + E_jk - E_ik - E_jl) / 2, a zero
    misfit makes every pair of disjoint edges perpendicular, and conversely.
    Without two disjoint edges (d <= 2) the misfit is 0.
    """
    n = s.n
    if n <= 3:
        return 0.0
    i, j, sq = _pairs(s)
    r = squared_edge_table(s).sum(axis=1)
    lam = (r - r.sum() / (2 * (n - 1))) / (n - 2)
    return float(np.abs(sq - lam[i] - lam[j]).max()) / float(sq.max())
