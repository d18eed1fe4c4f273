"""Shared numerical kernels.

Everything geometric in this package funnels its floating-point decisions
through a single :class:`TolerancePolicy` of two numbers, ``rel`` and
``rank_cut``, so that no predicate carries a private epsilon.  Both are
relative to what they judge, which keeps every decision invariant under
similarity.  The other kernels are a symmetric eigensolver wrapper and
a rank-revealing embedding of positive semidefinite Gram matrices into
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPSDError, NumericError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "SymMatrix",
    "sym_eigen",
    "gram_embed",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Tolerance bundle used by every geometric predicate.

    rel        relative tolerance: every comparison is scaled by the
               quantity it judges, with no absolute floor
    rank_cut   eigenvalue ratio (lambda / lambda_max) below which an
               eigenvalue counts as zero in rank decisions
    """

    rel: float = 1e-9
    rank_cut: float = 1e-10

    def __post_init__(self):
        for name in ("rel", "rank_cut"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InputError(f"tolerance {name}={v!r} must lie strictly in (0, 1)")

    @staticmethod
    def _gap(values) -> tuple[float, float]:
        """(max - min, max |values|) of a sample; (0.0, 0.0) if empty."""
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return 0.0, 0.0
        return float(v.max() - v.min()), float(np.abs(v).max())

    def all_close(self, values) -> bool:
        """True when max - min <= rel * max |values|: every pairwise gap is
        within rel of the sample's own scale, with no absolute floor.  An
        empty or all-zero sample is close."""
        gap, scale = self._gap(values)
        return gap <= self.rel * scale

    def spread(self, values) -> float:
        """Relative spread (max - min) / max |values| of a sample; 0.0 for
        an empty or all-zero one."""
        gap, scale = self._gap(values)
        return gap / scale if scale > 0.0 else 0.0


DEFAULT_POLICY = TolerancePolicy()


class SymMatrix:
    """Real symmetric matrix of small order.

    Input is checked for symmetry within rel of its largest entry and then
    symmetrized exactly, so downstream eigensolves never see an asymmetric
    residue.
    """

    __slots__ = ("a",)

    def __init__(self, entries, policy: TolerancePolicy = DEFAULT_POLICY):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("matrix entries must be finite")
        skew = float(np.abs(arr - arr.T).max(initial=0.0))
        if skew > policy.rel * float(np.abs(arr).max(initial=0.0)):
            raise InputError(f"matrix is not symmetric (max asymmetry {skew:g})")
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "a", sym)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def sym_eigen(m: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues in descending order, eigenvectors as matching
    orthonormal columns).
    """
    a = m.a if isinstance(m, SymMatrix) else SymMatrix(m).a
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolve failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def gram_embed(g: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Embed a PSD Gram matrix as points whose inner products reproduce it.

    Returns an (n, r) array of row points, r being the numerical rank:
    the count of eigenvalues above rank_cut * lambda_max.  Eigenvalues in
    the band [-rank_cut * lambda_max, rank_cut * lambda_max] are treated
    as round-off from exact singularity and clamped to zero; anything
    below the band raises :class:`NotPSDError`.
    """
    vals, vecs = sym_eigen(g)
    lam_max = max(float(vals[0]), 0.0)
    cut = policy.rank_cut * lam_max
    if float(vals[-1]) < -cut:
        ratio = float(vals[-1]) / lam_max if lam_max > 0 else float(vals[-1])
        raise NotPSDError(
            f"matrix has a negative eigenvalue {vals[-1]:g} below tolerance",
            min_ratio=ratio,
        )
    keep = vals > cut
    pts = vecs[:, keep] * np.sqrt(np.clip(vals[keep], 0.0, None))
    return pts


def _plain(obj):
    """``obj`` with numpy arrays and scalars turned into Python lists and
    scalars, recursing into dicts, lists and tuples (tuples become lists),
    so the result is JSON-plain (for the verify reports)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _json_default(obj):
    """``default`` hook for ``json.dumps``: numpy arrays become lists and
    numpy scalars Python scalars (``np.float64`` is a ``float`` already)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
