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
from functools import wraps
from math import factorial
from numbers import Integral

import numpy as np

from .errors import DegenerateSimplexError, InputError, NumericError
from .numerics import DEFAULT_POLICY, SymMatrix, TolerancePolicy, gram_embed, sym_eigen

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
    if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1:
        raise InputError(f"dimension must be an integer >= 1, got {dim!r}")
    try:
        arr = np.array(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"vertices are not a numeric array: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (dim + 1, dim):
        raise InputError(
            f"expected {dim + 1} vertices of length {dim}, got array of shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError("vertex coordinates must be finite")
    edges = arr[:-1] - arr[-1]
    g = edges @ edges.T
    vals, _ = sym_eigen(SymMatrix(g, policy))
    lam_max = float(vals[0])
    ratio = float(vals[-1]) / lam_max if lam_max > 0 else 0.0
    if lam_max <= 0 or ratio <= policy.rank_cut:
        raise DegenerateSimplexError(
            f"vertices are affinely dependent (eigenvalue ratio {ratio:.3e})",
            eigen_ratio=ratio,
        )
    arr.flags.writeable = False
    return Simplex(dim=dim, vertices=arr)


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _per_simplex(fn):
    """Run ``fn(s)`` once per simplex: the result is stored in ``s._memo``
    with every array in it (also inside a tuple) made read-only, and later
    calls return that same object."""

    @wraps(fn)
    def memoized(s: Simplex):
        if fn not in s._memo:
            s._memo[fn] = _read_only(fn(s))
        return s._memo[fn]

    return memoized


@_per_simplex
def volume(s: Simplex) -> float:
    """d-volume, |det e| / d! for the edge matrix e of :func:`_frame`."""
    return float(abs(np.linalg.det(_frame(s)[1]))) / factorial(s.dim)


@_per_simplex
def _pairs(s: Simplex):
    """Vertex pairs i < j (lexicographic), e = A_i - A_j and |e|^2, the last as
    stacked 1 x d by d x 1 products (rooted, the bits of ``np.linalg.norm``)."""
    r = np.arange(s.n)
    i, j = np.nonzero(r[:, None] < r)
    e = s.vertices[i] - s.vertices[j]
    return i, j, e, np.matmul(e[:, None, :], e[:, :, None])[:, 0, 0]


@_per_simplex
def edge_lengths(s: Simplex) -> np.ndarray:
    """All C(d+1, 2) edge lengths, in lexicographic (i < j) order."""
    return np.sqrt(_pairs(s)[3])


@_per_simplex
def squared_edge_table(s: Simplex) -> np.ndarray:
    """(d+1) x (d+1) table of squared distances, zero diagonal."""
    i, j, _, sq = _pairs(s)
    table = np.zeros((s.n, s.n))
    table[i, j] = table[j, i] = sq
    return table


@_per_simplex
def diameter(s: Simplex) -> float:
    return float(np.max(edge_lengths(s)))


@_per_simplex
def facet_indices(s: Simplex) -> np.ndarray:
    """(d+1) x d vertex-index table; row i is the facet opposite vertex i."""
    c = np.arange(s.dim)
    return c + (c >= np.arange(s.n)[:, None])


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
    b = int(np.argmin(sq.sum(axis=1)))
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
    return b, e, normals, np.linalg.norm(normals, axis=1), c


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
    d V / h_i = d V |n_i|; the facets of a segment are points, of measure 1."""
    if s.dim == 1:
        return np.ones(2)
    return s.dim * volume(s) * _frame(s)[3]


@_per_simplex
def facet_circumradii(s: Simplex) -> np.ndarray:
    """Circumradii of all d+1 facets, facet i opposite vertex i: the distance
    from the foot of C on the facet, C - (w_i / |n_i|^2) n_i with w the
    barycentrics of C, to a facet vertex (A_b, or A_rest[0] opposite b)."""
    b, e, normals, sizes, c = _frame(s)
    feet = c - (_weights(s, c) / sizes**2)[:, None] * normals
    feet[b] -= e[0]
    return np.linalg.norm(feet, axis=1)


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


def _check_indices(n: int, index_set) -> tuple[int, ...]:
    """``index_set`` as a tuple of ints: distinct vertex indices in [0, n).
    Entries must be integers (numpy integers too), not bools."""
    idx = tuple(index_set)
    if any(isinstance(i, bool) or not isinstance(i, Integral) for i in idx):
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
    scaling, so the flags are invariant under similarity.
    """
    return ShapeFlags(
        is_regular=policy.all_close(edge_lengths(s)),
        is_equiareal=policy.all_close(facet_volumes(s)),
        is_equiradial=policy.all_close(facet_circumradii(s)),
        has_well_distributed_edges=policy.all_close(facet_sq_edge_sums(s)),
    )


#: entries of the pair Gram matrix formed at a time, so memory stays O(d^2)
#: (one block, the plain u @ u.T, up to d = 44)
_PAIR_BLOCK = 1 << 20


@_per_simplex
def edge_perpendicularity_residual(s: Simplex) -> float:
    """Worst normalized |(A_i - A_j) . (A_k - A_l)| over disjoint edge pairs.

    Zero residual characterizes orthocentric simplices; for d = 2 there
    are no disjoint pairs and the residual is 0.  The C(d+1, 2)^2 pair
    Gram matrix of unit edge vectors is formed in blocks of rows.
    """
    i, j, e, _ = _pairs(s)
    u = e / edge_lengths(s)[:, None]
    step = max(1, _PAIR_BLOCK // len(u))
    worst = 0.0
    for lo in range(0, len(u), step):
        rows = slice(lo, lo + step)
        bi, bj = i[rows, None], j[rows, None]
        disjoint = (bi != i) & (bi != j) & (bj != i) & (bj != j)
        block = np.abs(u[rows] @ u.T)
        worst = max(worst, float(np.max(block, where=disjoint, initial=0.0)))
    return worst


@_per_simplex
def _perpendicularity_bounds(s: Simplex) -> tuple[float, float]:
    """(lo, hi) with lo <= edge_perpendicularity_residual(s) <= hi, from the
    squared-edge table E in O(d^2).

    Least squares fits E_ij ~ l_i + l_j, which holds exactly when opposite
    edges are perpendicular (then, unless the simplex is rectangular, the
    l_i are the ``orthocentric.lambda_params``): with row sums r_i, L = sum(r) / (2 (n-1)) and
    l_i = (r_i - L) / (n-2), the misfit D_ij = E_ij - l_i - l_j has zero row
    sums; delta = max |D|.  Since e_ij . e_kl = (D_il + D_jk - D_ik - D_jl) / 2,
    the residual is at most 2 delta / min E.  Since D_ij is the sum of
    -2 e_ik . e_jl / ((n-1)(n-2)) over the (n-2)(n-3) ordered pairs k != l
    outside {i, j}, it is at least (n-1) delta / (2 (n-3) max E).

    delta is widened by 8 n eps max E, against a round-off of up to about
    0.6 n eps max E on the test fixtures.  Carried through, the same slack
    moves each bound by at least 4 n eps, which covers the round-off of the
    residual itself (about 0.2 n eps).  Without two disjoint edges (d <= 2)
    both bounds are 0.
    """
    n = s.n
    if n <= 3:
        return 0.0, 0.0
    i, j, _, sq = _pairs(s)
    r = squared_edge_table(s).sum(axis=1)
    lam = (r - r.sum() / (2 * (n - 1))) / (n - 2)
    e_min, e_max = float(np.min(sq)), float(np.max(sq))
    delta = float(np.max(np.abs(sq - lam[i] - lam[j])))
    slack = 8 * n * float(np.finfo(float).eps) * e_max
    lo = (n - 1) * (delta - slack) / (2 * (n - 3) * e_max)
    hi = 2 * (delta + slack) / e_min
    return max(lo, 0.0), hi
