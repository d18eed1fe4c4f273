"""Simplex representation, faces, volumes and shape predicates.

A :class:`Simplex` is d+1 vertices in d-space, validated for affine
independence on construction.  Faces are re-embedded isometrically into
their intrinsic dimension so that every operation in the package applies
uniformly at any level; only the edge-length table of a face is
contractual, not its vertex positions.

Vertex indices are 0-based everywhere.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import exp, factorial, inf, lgamma, log
from numbers import Integral
from sys import float_info

import numpy as np

from .errors import DegenerateSimplexError, InputError
from .numerics import DEFAULT_POLICY, TolerancePolicy

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
    read-only, so a stored table cannot go stale.  Privately, ``vertices``
    may also be a stack (k, d+1, d) of same-dimension simplices, on which
    each table runs once for all of them (see :func:`_stack`).
    """

    dim: int
    vertices: np.ndarray  # shape (dim+1, dim), C-contiguous, read-only
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
    """Validate and build a Simplex from dim+1 coordinate vectors, stored as
    a C-contiguous copy so that results do not depend on the input's layout.

    Degeneracy is decided by :func:`_from_vertex_rows`, the decision of a
    stack, on the relative thickness min h_i / diam, so the test is
    invariant under similarity and under a change of vertex order.
    """
    if not _is_int(dim) or dim < 1:
        raise InputError(f"dimension must be an integer >= 1, got {dim!r}")
    try:
        arr = np.array(vertices, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:  # a huge integer overflows
        raise InputError(f"vertices are not a numeric array: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (dim + 1, dim):
        raise InputError(
            f"expected {dim + 1} vertices of length {dim}, got array of shape {arr.shape}"
        )
    return _from_vertex_rows(dim, arr, policy)


# the scale domain of :func:`_from_vertex_rows`: every squared edge length and
# 1/h^2 for every altitude h lie in it, so their sums stay normal floats
_SCALE_MIN, _SCALE_MAX = 1e-280, 1e280


def _from_vertex_rows(dim: int, vertices: np.ndarray, policy: TolerancePolicy,
                      drop_from: int | None = None) -> Simplex:
    """The read-only simplex of the float vertex array ``vertices`` (dim+1, dim),
    which it keeps, or one read-only stack of the rows of ``vertices``
    (k, dim+1, dim), a copy in row order, under the one degeneracy rule:
    t^2 <= ``policy.rank_cut`` for the relative thickness t = min h_i / diam,
    t^2 = 1 / (max |n_i|^2 max E) from the memoized pair table and
    :func:`_frame` (one LU per stack; 0 for an exactly singular edge
    matrix), whatever the vertex order or similarity.  Non-finite
    coordinates or overflowing squared edges anywhere in the stack raise
    InputError, as does a simplex that is not degenerate but has a squared
    edge or altitude outside [_SCALE_MIN, _SCALE_MAX].  Then the first
    degenerate row raises DegenerateSimplexError, unless its index is at
    least ``drop_from``: those degenerate rows are left out."""
    if vertices.ndim == 3:
        vertices = vertices.copy()
    vertices.flags.writeable = False
    s = Simplex(dim=dim, vertices=vertices)
    with np.errstate(all="ignore"):  # the tests below decide every non-finite value
        top = _pairs(s).max(axis=-1)
        if not np.isfinite(top).all():
            if not np.isfinite(vertices).all():
                raise InputError("vertex coordinates must be finite")
            raise InputError("vertex coordinates are too large: squared edge lengths overflow")
        # |n_i| diam rather than |n_i|, which overflows at the small end of the domain
        t = np.ravel(1.0 / _row_norms(_frame(s)[2] * np.sqrt(top)[..., None, None]).max(axis=-1))
        t[np.isnan(t)] = 0.0  # an exactly singular edge matrix
        top = np.ravel(top)
        degenerate = t * t <= policy.rank_cut
        low = t * t * top  # the least squared altitude
        out = ~(degenerate | (top <= _SCALE_MAX) & (low >= _SCALE_MIN))
    if out.any():
        at = out.argmax()
        raise InputError(
            f"simplex scale out of range: squared edge lengths up to {top[at]:.3e} and "
            f"squared altitudes down to {low[at]:.3e} "
            f"must lie within [{_SCALE_MIN:g}, {_SCALE_MAX:g}]")
    bad = degenerate.tolist()
    if True in bad[:drop_from]:
        r = float(t[bad.index(True)])
        raise DegenerateSimplexError(
            f"vertices are affinely dependent (relative thickness {r:.3e})", thickness=r)
    if True in bad:
        return _from_vertex_rows(dim, vertices[~degenerate], policy)
    return s


def _read_only(value):
    """``value``, an array, a number or a tuple of them, as a table stores
    it: every array read-only, every numpy scalar (or 0-d array) the Python
    number it holds."""
    stored = []
    for item in value if type(value) is tuple else (value,):
        if type(item) is np.ndarray and item.ndim:
            item.flags.writeable = False
        elif isinstance(item, np.floating):
            item = float(item)
        elif isinstance(item, (np.integer, np.ndarray)):
            item = item.item()
        stored.append(item)
    return tuple(stored) if type(value) is tuple else stored[0]


def _per_simplex(fn):
    """Run ``fn(s)`` once per simplex: the result is stored in ``s._memo``
    as :func:`_read_only` makes it, and later calls return that same object.

    ``fn`` is written over vertices with leading axes (..., n, d): on one
    simplex its per-simplex numbers come out as Python numbers, on a stack
    as arrays over the stack, row r with the bits of simplex r alone.
    Gathers per simplex go through :func:`_at`; a number read from another
    table takes ``np.asarray(x)[..., None]`` to meet rows of the same simplex.
    """

    @wraps(fn)
    def memoized(s: Simplex):
        if fn not in s._memo:
            s._memo[fn] = _read_only(fn(s))
        return s._memo[fn]

    return memoized


def _at(s: Simplex, index):
    """Index of vertex ``index`` along the vertex axis of ``s``: ``index``
    itself on one simplex; on a stack, where row r of ``index`` belongs to
    simplex r, the pair (rows, index)."""
    if s.vertices.ndim == 2:
        return index
    return _rows(len(s.vertices), np.ndim(index)), index


@lru_cache(maxsize=64)
def _rows(k: int, ndim: int) -> np.ndarray:
    """Read-only row numbers 0..k-1 along the first of ``ndim`` axes, the
    row index of :func:`_at`; built once per (k, ndim)."""
    return _read_only(np.arange(k).reshape((-1,) + (1,) * (ndim - 1)))


def _stack(parts, rows=None) -> Simplex:
    """One read-only stack of ``parts``, simplices and stacks of one
    dimension, in order, or of its rows ``rows`` (an index array): a copy
    of the vertices with an empty memo, whose tables run once for the whole
    block.  No part's memo is read or written."""
    vertices = np.concatenate([s.vertices.reshape((-1,) + s.vertices.shape[-2:]) for s in parts])
    if rows is not None:
        vertices = vertices[rows]
    vertices.flags.writeable = False
    return Simplex(dim=parts[0].dim, vertices=vertices)


_FLOAT_MAX = float_info.max
_LOG_FLOAT_MAX = log(_FLOAT_MAX)
# the largest d whose d! is a finite float
_MAX_FACTORIAL_DIM = 170


def _factorial_quotient(k: int, numerators, factor, logs) -> np.ndarray:
    """numerators / k! * factor entry by entry, an array of the shape of
    ``logs``: the formula as written where k! and the quotient are finite
    floats, elsewhere exp(logs) (``logs`` the log of each quotient), 0.0 where
    that underflows and the largest float where it overflows.  This is the
    one out-of-range rule of every volume; it never raises or warns."""
    out = np.full(np.shape(logs), inf)
    if k <= _MAX_FACTORIAL_DIM:
        with np.errstate(over="ignore", invalid="ignore"):
            out[...] = numerators / float(factorial(k)) * factor
    far = ~np.isfinite(out)
    if far.any():
        out[far] = [_FLOAT_MAX if x >= _LOG_FLOAT_MAX else exp(x)
                    for x in np.asarray(logs)[far].tolist()]
    return out


@_per_simplex
def volume(s: Simplex) -> float:
    """d-volume, |det e| / d! for the edge matrix e of :func:`_frame`, read
    from ``slogdet`` (``det`` is sign * exp(log|det|) from the same LU),
    out of float range by :func:`_factorial_quotient`."""
    d = s.dim
    logdets = np.linalg.slogdet(_frame(s)[1])[1]  # 0-d on one simplex
    # math.exp, not np.exp, for the bits of the formula; inf where it overflows
    numerators = [exp(x) if x <= _LOG_FLOAT_MAX else inf for x in np.ravel(logdets).tolist()]
    return _factorial_quotient(d, np.reshape(numerators, logdets.shape), 1.0,
                               logdets - lgamma(d + 1))


@lru_cache(maxsize=64)
def _pair_index(n: int):
    """Read-only (i, j): the index pairs i < j of n vertices, lexicographic
    (``combinations`` order); built once per n and shared."""
    r = np.arange(n)
    return _read_only(np.nonzero(r[:, None] < r))


def _sq_norms(v: np.ndarray):
    """|v|^2 along the last axis, v . v of each vector (one BLAS dot, alone
    or in stacked 1 x d by d x 1 products): rooted, the bits of
    ``np.linalg.norm``."""
    if v.ndim == 1:
        return v.dot(v)
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


# the most values one slice holds: of pair differences, face centroids,
# facet projections, queued residuals
_SLICE_VALUES = 1 << 14


def _slice_step(size: int) -> int:
    """Rows of ``size`` values each that one slice holds, one at least."""
    return max(1, _SLICE_VALUES // size)


@_per_simplex
def _pairs(s: Simplex) -> np.ndarray:
    """|A_i - A_j|^2 over the vertex pairs i < j of :func:`_pair_index`."""
    return _pair_rows(s.vertices)


def _pair_rows(vertices: np.ndarray) -> np.ndarray:
    """|p_i - p_j|^2 over the pairs i < j of :func:`_pair_index` of the point
    sets ``vertices`` (..., n, d), :func:`_pairs` where no simplex is built:
    the pairs of all sets in order, in slices of one pair or more and about
    ``_SLICE_VALUES`` difference values at most, each with one slice's bits."""
    n, d = vertices.shape[-2:]
    i, j = _pair_index(n)
    if len(i) * vertices.size <= _SLICE_VALUES * n:
        return _sq_norms(vertices.take(i, axis=-2) - vertices.take(j, axis=-2))
    points = vertices.reshape(-1, d)
    first = np.arange(0, len(points), n)[:, None]  # the row of each set's vertex 0
    at_i, at_j = (first + i).ravel(), (first + j).ravel()
    out, step = np.empty(at_i.shape), _slice_step(d)
    for a in range(0, len(out), step):
        at = slice(a, a + step)
        out[at] = _sq_norms(points.take(at_i[at], axis=0) - points.take(at_j[at], axis=0))
    return out.reshape(vertices.shape[:-2] + i.shape)


@_per_simplex
def edge_lengths(s: Simplex) -> np.ndarray:
    """All C(d+1, 2) edge lengths, in lexicographic (i < j) order."""
    return np.sqrt(_pairs(s))


@lru_cache(maxsize=64)
def _pair_slots(n: int) -> np.ndarray:
    """Read-only n x n table: 1 + the position of pair {i, j} in
    :func:`_pair_index`, and 0 on the diagonal; built once per n."""
    i, j = _pair_index(n)
    slots = np.zeros((n, n), dtype=np.intp)
    slots[i, j] = slots[j, i] = np.arange(1, len(i) + 1)
    return _read_only(slots)


@_per_simplex
def squared_edge_table(s: Simplex) -> np.ndarray:
    """(d+1) x (d+1) table of squared distances, zero diagonal: the pair
    table behind a 0, gathered by :func:`_pair_slots`."""
    sq = _pairs(s)
    padded = np.zeros(sq.shape[:-1] + (sq.shape[-1] + 1,))
    padded[..., 1:] = sq
    return padded.take(_pair_slots(s.n), axis=-1)


@_per_simplex
def diameter(s: Simplex) -> float:
    return edge_lengths(s).max(axis=-1)


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
    b = sq.sum(axis=-1).argmin(axis=-1)
    at_b, at_rest = _at(s, b), _at(s, facet_indices(s)[b])
    v = s.vertices
    e = v[at_rest] - v[at_b][..., None, :]
    try:
        inv = np.linalg.inv(e)
    except np.linalg.LinAlgError:  # a zero pivot: the singular rows stay NaN, degenerate
        inv = np.full(e.shape, np.nan)
        for r in np.ndindex(e.shape[:-2]):
            with suppress(np.linalg.LinAlgError):
                inv[r] = np.linalg.inv(e[r])
    normals = np.empty(v.shape)
    normals[at_rest] = inv.swapaxes(-1, -2)
    normals[at_b] = -inv.sum(axis=-1)
    c = (inv @ (sq[at_b][at_rest] / 2.0)[..., None])[..., 0]
    return b, e, normals, _row_norms(normals), c


def _row_norms(v: np.ndarray) -> np.ndarray:
    """|v| along the last axis, the bits of ``np.linalg.norm(v, axis=-1)``."""
    return np.sqrt((v * v).sum(axis=-1))


def _weights(s: Simplex, q: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of A_b + q: n_i . q, and at the base vertex b
    what makes them sum to 1."""
    b, _, normals = _frame(s)[:3]
    w = (normals @ q[..., None])[..., 0]
    w[_at(s, b)] = 0.0
    w[_at(s, b)] = 1.0 - w.sum(axis=-1)
    return w


@_per_simplex
def facet_volumes(s: Simplex) -> np.ndarray:
    """(d-1)-volumes of all d+1 facets, facet i opposite vertex i:
    d V / h_i = d V |n_i|, at most the largest float (see :func:`volume`);
    the facets of a segment are points, of measure 1."""
    if s.dim == 1:
        return np.ones(s.vertices.shape[:-1])
    with np.errstate(over="ignore"):
        return np.minimum(np.asarray(s.dim * volume(s))[..., None] * _frame(s)[3], _FLOAT_MAX)


@_per_simplex
def facet_circumradii(s: Simplex) -> np.ndarray:
    """Circumradii of all d+1 facets, facet i opposite vertex i: the distance
    from the foot of C on the facet, C - (w_i / |n_i|^2) n_i with w the
    barycentrics of C, to a facet vertex (A_b, or A_rest[0] opposite b)."""
    b, e, normals, sizes, c = _frame(s)
    feet = c[..., None, :] - (_weights(s, c) / sizes**2)[..., None] * normals
    feet[_at(s, b)] -= e[..., 0, :]
    return _row_norms(feet)


def facet_sq_edge_sums(s: Simplex) -> np.ndarray:
    """Sum of squared edge lengths of each facet, facet i opposite vertex i:
    the total over all edges minus the edges at vertex i."""
    sq = squared_edge_table(s)
    return sq.sum(axis=(-2, -1))[..., None] / 2.0 - sq.sum(axis=-1)


def barycentric(s: Simplex, point) -> np.ndarray:
    """Barycentric coordinates of ``point`` with respect to the vertices."""
    return _weights(s, np.asarray(point, float) - s.vertices[_at(s, _frame(s)[0])])


def face(s: Simplex, index_set, policy: TolerancePolicy = DEFAULT_POLICY) -> Simplex:
    """Face spanned by the selected vertices, re-embedded isometrically
    into (|I|-1)-space: the first vertex at the origin, the others at the
    columns of the R factor of the edge vectors from it.  Vertex order
    follows the index set; ``from_vertices`` decides degeneracy."""
    idx = _check_indices(s.n, index_set)
    if len(idx) < 2:
        raise InputError("a face needs at least 2 vertices")
    return from_vertices(len(idx) - 1, _face_pose(s.vertices[list(idx)]), policy)


def _face_pose(pts: np.ndarray) -> np.ndarray:
    """:func:`face`'s re-embedded vertices for the points ``pts`` (..., m, d),
    a stack of point sets taking one QR: the rows of R^T under a zero row,
    C-contiguous as every simplex is stored."""
    r = np.linalg.qr((pts[..., 1:, :] - pts[..., :1, :]).swapaxes(-1, -2), mode="r")
    out = np.zeros(r.shape[:-2] + (r.shape[-1] + 1, r.shape[-2]))
    out[..., 1:, :] = r.swapaxes(-1, -2)
    return out


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
    return s.vertices - normals / (sizes**2)[..., None]


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
        return np.zeros(s.vertices.shape[:-2])
    i, j = _pair_index(n)
    sq = _pairs(s)
    r = squared_edge_table(s).sum(axis=-1)
    lam = (r - (r.sum(axis=-1) / (2 * (n - 1)))[..., None]) / (n - 2)
    return np.abs(sq - lam.take(i, axis=-1) - lam.take(j, axis=-1)).max(axis=-1) / sq.max(axis=-1)
