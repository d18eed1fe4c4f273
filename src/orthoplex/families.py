"""Constructors and closed-form metrics for the special families.

Four families are provided:

* regular simplices,
* kites: a regular (d-1)-simplex base of edge s with an apex at distance
  t from every base vertex (eccentricity eps = t/s),
* rectangular simplices: mutually perpendicular legs at one vertex,
* the generalized-kite equiradial family: two groups of equal orthocenter
  barycentrics, the join of two regular simplices with constant
  intervening edge length.

Closed-form metrics are exposed next to each constructor so coordinate
computations can be cross-checked against them.  Like ``simplex.volume``,
their volumes never raise: out of float range they are 0.0 or the largest
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateKiteError,
    InputError,
    NotLiftableError,
    NumericError,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy
from . import orthocentric as oc
from . import simplex as sx

__all__ = [
    "KiteSpec",
    "KiteMetrics",
    "RectSpec",
    "RectMetrics",
    "RegularMetrics",
    "EquiradialSpec",
    "EquiradialSolution",
    "regular",
    "regular_metrics",
    "kite",
    "kite_metrics",
    "equiradial_kite",
    "rectangular",
    "rect_metrics",
    "lift_to_rectangular",
    "equiradial_admissible",
    "equiradial_general",
]


# ---------------------------------------------------------------------------
# regular simplices


@dataclass(frozen=True)
class RegularMetrics:
    circumradius: float
    inradius: float
    altitude: float
    volume: float


def regular(d: int, s: float, policy: TolerancePolicy = DEFAULT_POLICY) -> sx.Simplex:
    """Regular d-simplex of edge s, centered at the origin.

    Built by centering the standard basis of (d+1)-space and reflecting its
    span onto the first d coordinates, so the coordinates are a closed form
    with no eigensolve involved.  Each (d, s) is computed once: equal
    arguments return fresh simplices of the same coordinates.
    """
    if not sx._is_int(d) or d < 1:
        raise InputError(f"dimension must be an integer >= 1, got {d!r}")
    if not (0 < s < math.inf):
        raise InputError(f"edge length must be positive and finite, got {s}")
    return sx.from_vertices(d, _regular(int(d), float(s)), policy)


@lru_cache(maxsize=32)
def _regular(d: int, s: float) -> np.ndarray:
    """The read-only vertex rows (d+1, d) of :func:`regular`, shared by every
    caller; a simplex built from them holds its own copy and memo."""
    n = d + 1
    pts = np.eye(n) - 1.0 / n
    w = np.full(n, 1.0 / math.sqrt(n))
    w[-1] -= 1.0  # Householder vector sending (1..1)/sqrt(n) to e_n
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    coords = (pts @ h.T)[:, :d]  # last coordinate is 0 on the centered span
    return sx._read_only(coords * (s / math.sqrt(2.0)))


def regular_metrics(d: int, s: float) -> RegularMetrics:
    """Closed-form R, r, altitude and volume of the regular d-simplex:

        R^2 = s^2 d / (2 (d+1))          h = s sqrt((d+1) / (2d))
        V   = s^d sqrt((d+1) / 2^d) / d!  r = s / sqrt(2 d (d+1))
    """
    if not sx._is_int(d) or d < 1 or not (0 < s < math.inf):
        raise InputError(f"need an integer d >= 1 and finite s > 0, got d={d!r}, s={s!r}")
    return RegularMetrics(
        circumradius=s * math.sqrt(d / (2.0 * (d + 1))),
        inradius=s / math.sqrt(2.0 * d * (d + 1)),
        altitude=s * math.sqrt((d + 1) / (2.0 * d)),
        volume=_power_volume(d, s, d + 1),
    )


def _power_volume(d: int, s: float, c: float) -> float:
    """s^d sqrt(c / 2^d) / d!, the regular and kite volumes."""
    try:
        numerator = float(s) ** d * math.sqrt(c / 2.0**d)
    except OverflowError:
        numerator = math.inf
    return float(sx._factorial_quotient(
        d, numerator, 1.0,
        d * math.log(s) + (math.log(c) - d * math.log(2.0)) / 2.0 - math.lgamma(d + 1)))


# ---------------------------------------------------------------------------
# kites


@dataclass(frozen=True)
class KiteSpec:
    """Kite with regular (d-1)-base of edge ``s`` and apex edges ``t``."""

    d: int
    s: float
    t: float

    def __post_init__(self):
        if not sx._is_int(self.d) or self.d < 3:
            raise InputError(f"kites need an integer dimension >= 3, got {self.d!r}")
        # kite_metrics' core 2 eps^2 d - (d-1) and twice it must be finite
        if not (0 < self.s < math.inf and 0 < self.t < math.inf
                and self.eccentricity * self.eccentricity < math.inf
                and 4.0 * self.eccentricity**2 * int(self.d) < math.inf):
            raise InputError(f"kite edges must be finite and positive with 4 d (t/s)^2 "
                             f"finite, got s={self.s!r}, t={self.t!r}")
        lo = (self.d - 1) / (2.0 * self.d)
        if self.eccentricity**2 <= lo:
            raise DegenerateKiteError(
                f"eccentricity^2 = {self.eccentricity**2:.6g} must exceed "
                f"(d-1)/(2d) = {lo:.6g}; the apex collapses into the base hyperplane"
            )

    @property
    def eccentricity(self) -> float:
        return self.t / self.s


@dataclass(frozen=True)
class KiteMetrics:
    circumradius: float
    inradius: float
    altitude: float
    volume: float
    base_circumradius: float
    circumcenter_interior: bool
    equiradial: bool
    orthocenter_interior: bool
    rectangular_at_apex: bool


def kite(spec: KiteSpec, policy: TolerancePolicy = DEFAULT_POLICY) -> sx.Simplex:
    """Coordinates of the kite: regular base centered at the origin of the
    first d-1 axes, apex on the last axis at the closed-form height."""
    return sx.from_vertices(spec.d, _kite_pose(spec), policy)


def _kite_pose(spec: KiteSpec) -> np.ndarray:
    """The vertices of :func:`kite`, before the degeneracy decision."""
    d = spec.d
    verts = np.zeros((d + 1, d))
    verts[:d, : d - 1] = _regular(d - 1, float(spec.s))
    verts[d, d - 1] = kite_metrics(spec).altitude
    return verts


def kite_metrics(spec: KiteSpec, policy: TolerancePolicy = DEFAULT_POLICY) -> KiteMetrics:
    """Closed-form kite metrics in terms of eps = t/s:

        h   = s sqrt((2 eps^2 d - (d-1)) / (2d))
        R   = s eps^2 sqrt(d / (2 (2 eps^2 d - (d-1))))
        V   = s^d sqrt((2 eps^2 d - (d-1)) / 2^d) / d!
        r   = s sqrt(2 eps^2 d - (d-1)) /
              (sqrt(2) (sqrt(d) + d sqrt(2 eps^2 (d-1) - (d-2))))

    plus the base circumradius and the interiority/equiradiality flags.
    """
    d, s = spec.d, spec.s
    e2 = spec.eccentricity**2
    core = 2.0 * e2 * d - (d - 1)
    rho = s * math.sqrt((d - 1) / (2.0 * d))
    eq_target = (d - 2) / d
    scale2 = max(e2, 1.0)
    return KiteMetrics(
        circumradius=s * (e2 * math.sqrt(d / (2.0 * core))),  # finite wherever R is
        inradius=s
        * math.sqrt(core)
        / (math.sqrt(2.0) * (math.sqrt(d) + d * math.sqrt(2.0 * e2 * (d - 1) - (d - 2)))),
        altitude=s * math.sqrt(core / (2.0 * d)),
        volume=_power_volume(d, s, core),
        base_circumradius=rho,
        circumcenter_interior=e2 > (d - 1) / d,
        equiradial=(
            abs(e2 - eq_target) <= policy.rel * scale2
            or abs(e2 - 1.0) <= policy.rel * scale2
        ),
        orthocenter_interior=e2 > 0.5,
        rectangular_at_apex=abs(e2 - 0.5) <= policy.rel * scale2,
    )


def equiradial_kite(d: int) -> KiteSpec:
    """The unique non-regular equiradial kite shape: eps^2 = (d-2)/d, base
    edge 1.  Exists for d >= 4; for d = 4 it is rectangular at the apex."""
    if d <= 3:
        raise InputError(
            f"equiradial kites of dimension {d} are regular; need d >= 4"
        )
    return KiteSpec(d=d, s=1.0, t=math.sqrt((d - 2) / d))


# ---------------------------------------------------------------------------
# rectangular simplices


@dataclass(frozen=True)
class RectSpec:
    """Rectangular d-simplex with the given leg lengths."""

    d: int
    legs: tuple[float, ...]

    def __post_init__(self):
        if not sx._is_int(self.d) or self.d < 2:
            raise InputError(f"dimension must be an integer >= 2, got {self.d!r}")
        if len(self.legs) != self.d:
            raise InputError(f"need {self.d} legs, got {len(self.legs)}")
        if not all(np.isfinite(b) and b > 0 for b in self.legs):
            raise InputError("legs must be positive and finite")


@dataclass(frozen=True)
class RectMetrics:
    volume: float
    hyp_volume: float
    altitude: float
    inradius: float
    r_squared: float
    circumcenter: np.ndarray
    hyp_orthocenter: np.ndarray
    hyp_orthocenter_bary: np.ndarray


def rectangular(spec: RectSpec, policy: TolerancePolicy = DEFAULT_POLICY) -> sx.Simplex:
    """Vertex i on the positive i-th axis at its leg length; the
    right-angle vertex (= orthocenter) last, at the origin."""
    return sx.from_vertices(spec.d, _rect_pose(np.asarray(spec.legs, dtype=float)), policy)


def _rect_pose(legs: np.ndarray) -> np.ndarray:
    """The vertices of :func:`rectangular` for the legs (..., d), a stack of
    leg tuples giving a stack of simplices."""
    d = legs.shape[-1]
    verts = np.zeros(legs.shape[:-1] + (d + 1, d))
    diagonal = np.arange(d)
    verts[..., diagonal, diagonal] = legs
    return verts


_TINY = float(np.finfo(float).tiny)


def rect_metrics(spec: RectSpec) -> RectMetrics:
    """Closed forms in the legs b_1..b_d:

        V      = b_1 ... b_d / d!
        V_hyp  = (b_1 ... b_d / (d-1)!) sqrt(sum 1/b_i^2)
        h      = 1 / sqrt(sum 1/b_i^2)
        r      = 1 / (sum 1/b_i + sqrt(sum 1/b_i^2))
        R^2    = (sum b_i^2) / 4
        C      = (A_1 + ... + A_d) / 2
        B      = hypotenuse-facet orthocenter, barycentrics prop. to 1/b_i^2

    The sums are formed from the legs over a power of two near the shortest
    (for 1/b) or the longest leg (for b^2), so that legs of any size give
    them without a warning, a 0 or an inf: a term that leaves float range
    there is below the rounding of the sum.  Scaling by a power of two is
    exact, so these are the bits of the formulas as written wherever those
    stay in range; B_i = b_i w_i is read as (1/b_i) / sum 1/b^2 where w_i
    is below the normal floats.  Out of float range, V, V_hyp and R^2 are
    0.0 or the largest float, as in ``simplex.volume``.  This is the one-row
    call of the rows form :func:`_rect_rows`, the formulas over a block of legs.
    """
    rows = _rect_rows(np.asarray(spec.legs, dtype=float)[None])
    return RectMetrics(**{name: value[0] if value.ndim > 1 else float(value[0])
                          for name, value in vars(rows).items()})


def _rect_rows(legs: np.ndarray) -> RectMetrics:
    """:func:`rect_metrics` of each row of the legs (k, d), every field an
    array over the rows whose row r holds the bits of row r alone."""
    b = np.ascontiguousarray(legs, dtype=float)
    d = b.shape[-1]
    log_prod = np.log(b).sum(axis=-1)
    # powers of two p near the shortest and the longest leg, x / p in [1, 2)
    short, long = (np.ldexp(1.0, np.frexp(x)[1] - 1) for x in (b.min(axis=-1), b.max(axis=-1)))
    # overflow to inf is expected: a product takes the log form, 1/u^2 for a
    # leg far above the shortest is 0, and R^2 is clamped to the largest float
    with np.errstate(over="ignore"):
        prod = b.prod(axis=-1)
        inv2_terms = 1.0 / (b / short[:, None]) ** 2
        inv2 = inv2_terms.sum(axis=-1)  # sum 1/b_i^2 times short^2, in [1/4, d]
        root = np.sqrt(inv2)
        w = inv2_terms / inv2[:, None]
        r_squared = ((b / long[:, None]) ** 2).sum(axis=-1) / 4.0 * long * long
        return RectMetrics(
            volume=sx._factorial_quotient(d, prod, 1.0, log_prod - math.lgamma(d + 1)),
            hyp_volume=sx._factorial_quotient(
                d - 1, prod, root / short,
                log_prod - math.lgamma(d) + np.log(root) - np.log(short)),
            altitude=short / root,
            inradius=short / ((short[:, None] / b).sum(axis=-1) + root),
            r_squared=np.minimum(r_squared, sx._FLOAT_MAX),
            circumcenter=b / 2.0,
            hyp_orthocenter=np.where(w >= _TINY, w * b,
                                     short[:, None] / b * (short / inv2)[:, None]),
            hyp_orthocenter_bary=w,
        )


def lift_to_rectangular(
    t: sx.Simplex, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[RectSpec, sx.Simplex]:
    """Realize an orthocentric simplex with negative obtuseness as the
    hypotenuse facet of a rectangular simplex one dimension up.

    The legs satisfy b_i^2 t_i = -sigma with t_i the orthocenter
    barycentrics of the input; the Pythagorean identity
    b_i^2 + b_j^2 = -sigma (1/t_i + 1/t_j) reproduces the edge table.
    """
    legs, stuck = _lift_rows(t, policy)  # raises what orthocentric.params_of raises
    if stuck:
        sigma, is_rect = oc._param_rows(t, policy)[:2]
        raise NotLiftableError(f"not liftable: obtuseness {0.0 if is_rect else sigma:g} >= 0 "
                               "(the orthocenter must be interior)")
    spec = RectSpec(d=t.dim + 1, legs=tuple(legs.tolist()))
    return spec, rectangular(spec, policy)


def _lift_rows(t: sx.Simplex, policy: TolerancePolicy):
    """(legs, stuck) of one simplex or, a row each, of every simplex of a
    stack: stuck where the obtuseness is not negative (rectangular, or
    sigma >= 0), whose legs are NaN.  Raises what ``orthocentric.params_of``
    raises."""
    sigma, rectangular, _, bary = oc._param_rows(t, policy)
    oc._validate_bary(bary[~rectangular], policy)
    stuck = rectangular | (sigma >= 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # the stuck rows
        legs = np.sqrt(-np.asarray(sigma)[..., None] / bary)
    return np.where(np.asarray(stuck)[..., None], np.nan, legs), stuck


# ---------------------------------------------------------------------------
# generalized-kite equiradial family


def _admissibility_sides(d: int, m: int) -> tuple[int, float]:
    """(m (d+1-m), ((d^2 - 3d + 4) / (2 (d-2)))^2) for integers 2 <= m <= d-1."""
    if not (sx._is_int(d) and sx._is_int(m) and 2 <= m <= d - 1):
        raise InputError(f"need integers 2 <= m <= d-1, got m={m!r}, d={d!r}")
    n = d + 1 - m
    bound = ((d * d - 3 * d + 4) / (2.0 * (d - 2))) ** 2
    return m * n, bound


def equiradial_admissible(d: int, m: int) -> bool:
    """Existence test for the two-group equiradial family:
    m (d+1-m) < ((d^2 - 3d + 4) / (2 (d-2)))^2 (strict; equality never
    occurs).  Admissibility forces d >= 9."""
    lhs, rhs = _admissibility_sides(d, m)
    return lhs < rhs


@dataclass(frozen=True)
class EquiradialSpec:
    """Two-group equiradial simplex: m equal coordinates, then n = d+1-m
    equal coordinates; ``branch`` selects one of the two root assignments."""

    d: int
    m: int
    branch: int

    def __post_init__(self):
        if not (sx._is_int(self.branch) and self.branch in (1, 2)):
            raise InputError(f"branch must be the integer 1 or 2, got {self.branch!r}")
        lhs, rhs = _admissibility_sides(self.d, self.m)
        if not lhs < rhs:
            raise AdmissibilityError(
                f"(d, m) = ({self.d}, {self.m}) inadmissible: "
                f"m(d+1-m) = {lhs} >= {rhs:.6f}",
                lhs=lhs,
                rhs=rhs,
            )

    @property
    def n(self) -> int:
        return self.d + 1 - self.m


@dataclass(frozen=True)
class EquiradialSolution:
    """Roots and derived parameters of the quadratic
    Q(Z) = Z^2 - (d^2-3d+4-2mn) Z + mn(mn-d):
    xi = (x+m)(1-n), eta = (y+n)(1-m), barycentrics a = -1/x, b = -1/y."""

    xi: float
    eta: float
    x: float
    y: float
    a: float
    b: float


def equiradial_general(
    d: int, m: int, branch: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[sx.Simplex, EquiradialSolution]:
    """Construct one of the two non-similar equiradial simplices with
    coordinate pattern (a x m, b x n): ``orthocentric.construct`` of the
    tuple of :func:`_equiradial_solution` at unit obtuseness scale.  The
    m-group occupies the first vertex indices.
    """
    bary, sol = _equiradial_solution(d, m, branch, policy)
    return oc.construct(bary, scale=1.0, policy=policy), sol


def _equiradial_solution(d: int, m: int, branch: int,
                         policy: TolerancePolicy) -> tuple[np.ndarray, EquiradialSolution]:
    """(bary, solution) of :func:`equiradial_general`, before any pose:
    solves Q(Z) for xi and eta (branch swaps the assignment), recovers
    x = xi/(1-n) - m and y = eta/(1-m) - n, checks the solution's identities
    at ``policy.rel``, and gives the all-positive tuple (-1/x repeated m
    times, -1/y repeated n times)."""
    spec = EquiradialSpec(d=d, m=m, branch=branch)
    n = spec.n
    mn = m * n
    p = d * d - 3 * d + 4 - 2 * mn
    q = mn * (mn - d)
    disc = p * p - 4.0 * q
    if not disc > 0:
        raise NumericError(f"admissibility guarantees distinct real roots, got disc={disc}")
    root_hi = (p + math.sqrt(disc)) / 2.0
    root_lo = (p - math.sqrt(disc)) / 2.0
    xi, eta = (root_hi, root_lo) if branch == 1 else (root_lo, root_hi)
    x = xi / (1.0 - n) - m
    y = eta / (1.0 - m) - n
    a = -1.0 / x
    b = -1.0 / y
    sol = EquiradialSolution(xi=xi, eta=eta, x=x, y=y, a=a, b=b)

    scale = abs(x * y)
    for holds, what in (
        (xi > 0 and eta > 0, "positive roots"),
        (x + m < 0 and y + n < 0, "x + m < 0 and y + n < 0"),
        (abs(x * y + n * x + m * y) <= policy.rel * scale, "xy + nx + my = 0"),
        (abs(x * y + x + y - (d - 3) * (d - 1)) <= policy.rel * scale,
         "xy + x + y = (d-3)(d-1)"),
        (abs(m * a + n * b - 1.0) <= policy.rel, "m a + n b = 1"),
    ):
        if not holds:
            raise NumericError(
                f"equiradial ({d}, {m}, branch {branch}) solution violates {what} "
                f"at rel={policy.rel:g}"
            )

    return np.concatenate([np.full(m, a), np.full(n, b)]), sol
