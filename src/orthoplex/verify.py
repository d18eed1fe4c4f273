"""Numerical verification suites for the center-coincidence theory.

Each suite sweeps constructed family fixtures and seeded random samples,
evaluating the relevant identities and predicates.  A check compares a
residual against its allowance; ``max_residual`` reports the largest
normalized ratio residual/allowance seen (pass means every ratio <= 1),
and the first violation is captured as a counterexample payload carrying
the simplex vertices and the named residual scalars.

Coincidence theorems of the form "centers coincide => regular" are tested
contrapositively (non-regular => centers separated), since exact
coincidence is a measure-zero event under sampling.  Equivalences are
tested in margin-robust form: a side must hold with 10x margin before the
other side is enforced at plain tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    InputError,
    NotLiftableError,
    NumericError,
    OrthoplexError,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy, _plain
from . import centers
from . import families
from . import orthocentric as oc
from . import simplex as sx

__all__ = [
    "SuiteConfig",
    "SuiteResult",
    "VerificationReport",
    "SUITE_NAMES",
    "suite_center_equivalences",
    "suite_regularity",
    "suite_euler_feuerbach",
    "suite_rectangular",
    "run_all",
]

SUITE_NAMES = (
    "center_equivalences",
    "regularity",
    "euler_feuerbach",
    "rectangular",
)

_ALIASES = {
    "centers": "center_equivalences",
    "equivalences": "center_equivalences",
    "euler": "euler_feuerbach",
    "feuerbach": "euler_feuerbach",
    "rect": "rectangular",
}


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple[str, ...] = SUITE_NAMES
    samples: int = 60
    seed: int = 42
    d_min: int = 2
    d_max: int = 6
    policy: TolerancePolicy = DEFAULT_POLICY

    def __post_init__(self):
        for name in ("samples", "seed", "d_min", "d_max"):
            value = getattr(self, name)
            if not sx._is_int(value):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if not (2 <= self.d_min <= self.d_max <= 10):
            raise InputError(
                f"need 2 <= d_min <= d_max <= 10, got [{self.d_min}, {self.d_max}]"
            )
        object.__setattr__(self, "suites", canonical_suites(self.suites))
        if not self.suites:
            raise InputError("no suite selected")


def canonical_suites(names) -> tuple[str, ...]:
    out = []
    for name in names:
        resolved = _ALIASES.get(name, name)
        if resolved not in SUITE_NAMES:
            raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
        if resolved not in out:
            out.append(resolved)
    return tuple(out)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    samples: int
    max_residual: float
    counterexample: dict | None
    elapsed_ms: int


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    seed: int
    suites: tuple[SuiteResult, ...]

    def to_json_dict(self, timings: bool = False) -> dict:
        """JSON payload; elapsed_ms is zeroed unless timings are requested,
        keeping the default report byte-deterministic for a fixed seed."""
        return {
            "pass": self.passed,
            "seed": self.seed,
            "suites": [
                {
                    "suite": r.suite,
                    "pass": r.passed,
                    "samples": r.samples,
                    "max_residual": r.max_residual,
                    "counterexample": r.counterexample,
                    "elapsed_ms": r.elapsed_ms if timings else 0,
                }
                for r in self.suites
            ],
        }


class _Recorder:
    """Accumulates checks; the first violation becomes the counterexample.

    A check is evaluated over a block of samples: ``simplex`` is a stack
    from :func:`simplex._fill`, whose samples run along the first axis of
    the residual, or one simplex (or None), a block of one.  Further axes
    hold values checked in turn.  The counterexample is the violation a
    loop over the samples would meet first: the earliest sample, then the
    earliest check in code order, then the earliest value.
    """

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.max_ratio = 0.0
        self.counterexample: dict | None = None
        self._first = None  # (block, sample index) of the counterexample
        self._t0 = time.perf_counter()

    def sample(self, count: int = 1):
        self.samples += count

    def check(self, label: str, residual, allowed, simplex: sx.Simplex | None = None,
              premise=True, **extra):
        """Compare ``residual`` with ``allowed`` where ``premise`` holds: both
        (and the premise) are arrays over the block or numbers, a shorter
        shape standing for its leading axes.  An array in ``extra`` is read
        at the violation's index, on as many axes as it has; any other
        value is the same for every sample."""
        residual = np.asarray(residual, dtype=float)
        allowed = _leading(np.asarray(allowed, dtype=float), residual.ndim)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # allowed 0: an exact coincidence in a separation check
            ratio = np.where(allowed != 0, residual / allowed,
                             np.where(residual <= 0, 0.0, np.inf))
        bad = ~(residual <= allowed)
        if premise is not True:
            applies = _leading(np.asarray(premise), residual.ndim)
            ratio, bad = ratio[np.broadcast_to(applies, ratio.shape)], bad & applies
        if ratio.size:
            top = float(ratio.max())
            # NaN on either side: infinite, and a violation below
            self.max_ratio = max(self.max_ratio, top if top == top else np.inf)
        at = int(bad.argmax())
        if not bad.flat[at]:
            return
        at = np.unravel_index(at, bad.shape)
        sample = at[: simplex.vertices.ndim - 2] if simplex is not None else ()
        if self.counterexample is not None and not (
            simplex is self._first[0] and sample < self._first[1]
        ):
            return
        payload = {
            "check": label,
            "residual": float(residual[at]),
            "allowed": float(np.broadcast_to(allowed, bad.shape)[at]),
            "residuals": {
                k: _plain(v[at[: v.ndim]] if isinstance(v, np.ndarray) else v)
                for k, v in extra.items()
            },
        }
        if simplex is not None:
            payload["simplex"] = {
                "dim": simplex.dim,
                "vertices": simplex.vertices[sample].tolist(),
            }
        self.counterexample = payload
        self._first = (simplex, sample)

    def fail(self, label: str, simplex: sx.Simplex | None = None, **extra):
        self.check(label, 1.0, 0.5, simplex=simplex, **extra)

    def result(self) -> SuiteResult:
        return SuiteResult(
            suite=self.name,
            passed=self.counterexample is None,
            samples=self.samples,
            max_residual=self.max_ratio,
            counterexample=self.counterexample,
            elapsed_ms=int((time.perf_counter() - self._t0) * 1000),
        )


def _leading(x: np.ndarray, ndim: int) -> np.ndarray:
    """``x`` with unit axes appended up to ``ndim``, so that its axes meet
    the leading axes of an ``ndim``-axis array."""
    return x.reshape(x.shape + (1,) * (ndim - x.ndim)) if x.ndim < ndim else x


def _sub_seed(config: SuiteConfig, *parts: int) -> int:
    ss = np.random.SeedSequence([config.seed, *parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _random_simplices(d: int, k: int, rng, policy: TolerancePolicy) -> list[sx.Simplex]:
    """k Gaussian d-simplices drawn from ``rng`` as one (k, d+1, d) block.  A
    degenerate draw is dropped and only the missing count is drawn again, so
    the stream gives the samples a loop drawing each until it is valid would."""
    out = []
    while len(out) < k:
        draws = rng.normal(0.0, 1.0, size=(k - len(out), d + 1, d))
        out += sx._from_vertex_rows(d, draws, policy, drop_degenerate=True)
    return out


def _per_dim(config: SuiteConfig) -> int:
    ndims = config.d_max - config.d_min + 1
    return max(1, config.samples // ndims)


# ---------------------------------------------------------------------------
# suite: center equivalences


def suite_center_equivalences(config: SuiteConfig) -> SuiteResult:
    """Margin-robust tests of the three center-coincidence equivalences:
    incenter=centroid <-> equiareal; centroid=circumcenter <-> equal
    per-facet squared-edge sums; circumcenter=incenter <-> circumcenter
    interior and equiradial."""
    rec = _Recorder("center_equivalences")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        rng = np.random.default_rng(_sub_seed(config, 1, d))
        fixtures = _family_fixtures(d, rng, pol)
        if d >= 3 and families.equiradial_admissible(d, 2):
            for branch in (1, 2):
                try:
                    fixtures.append(families.equiradial_general(d, 2, branch, pol)[0])
                except OrthoplexError as exc:  # an admissible pair must build
                    rec.fail("admissible equiradial fixture builds",
                             d=d, m=2, branch=branch, error=f"{type(exc).__name__}: {exc}")
        fixtures += _random_simplices(d, _per_dim(config), rng, pol)
        rec.sample(len(fixtures))
        _check_equivalences(rec, fixtures, pol)
    return rec.result()


def _family_fixtures(d: int, rng, policy: TolerancePolicy) -> list[sx.Simplex]:
    """The regular d-simplex of edge 1, a rectangular one with legs drawn
    from ``rng`` and, for d >= 4, the equiradial kite."""
    fixtures = [families.regular(d, 1.0, policy),
                sx.from_vertices(d, families._rect_pose(rng.uniform(0.5, 2.0, size=d)), policy)]
    if d >= 4:
        fixtures.append(families.kite(families.equiradial_kite(d, policy), policy))
    return fixtures


def _check_equivalences(rec: _Recorder, block: list[sx.Simplex], pol: TolerancePolicy):
    tol = pol.rel
    s = sx._fill(block, ())  # every table is read from the stack
    diam = sx.diameter(s)
    c, big_r = centers.circumcenter(s)
    i, inr = centers.incenter(s)
    # _CENTER_PAIRS order: G-C, G-I, G-M, C-I, C-M, I-M
    d_gc, d_ig, _, d_ci = (centers._center_distances(s)[:, :4] / diam[:, None]).T

    # contract checks keep the suite sensitive to faulty center
    # implementations (the equivalence implications alone are blind to
    # mutations that preserve symmetric fixtures)
    vertex_dists = sx._row_norms(s.vertices - c[:, None])
    facets = s.vertices[:, sx.facet_indices(s)]
    facet_dists = sx._row_norms(i[:, None] - sx.project_to_affine_hull(i[:, None], facets))

    # facet volume i = d V |n_i|: the spread of |n_i| (shape_predicates' equiareal rule)
    areas_spread = pol.spread(sx._frame(s)[3])
    wde_spread = pol.spread(sx.facet_sq_edge_sums(s))
    radii_spread = pol.spread(sx.facet_circumradii(s))
    bary_min = sx.barycentric(s, c).min(axis=-1)

    scal = dict(d_ig=d_ig, d_gc=d_gc, d_ci=d_ci, areas_spread=areas_spread,
                wde_spread=wde_spread, radii_spread=radii_spread, cc_bary_min=bary_min)

    rec.check("circumcenter equidistance contract",
              np.abs(vertex_dists - big_r[:, None]).max(axis=-1), tol * diam, s, **scal)
    rec.check("incenter facet-distance contract",
              np.abs(facet_dists - inr[:, None]).max(axis=-1), tol * diam, s, **scal)

    rec.check("incenter=centroid => equiareal", areas_spread, tol, s,
              premise=d_ig <= tol / 10, **scal)
    rec.check("equiareal => incenter=centroid", d_ig, tol, s,
              premise=areas_spread <= tol / 10, **scal)
    rec.check("centroid=circumcenter => well-distributed edges", wde_spread, tol, s,
              premise=d_gc <= tol / 10, **scal)
    rec.check("well-distributed edges => centroid=circumcenter", d_gc, tol, s,
              premise=wde_spread <= tol / 10, **scal)
    rec.check("circumcenter=incenter => equiradial", radii_spread, tol, s,
              premise=d_ci <= tol / 10, **scal)
    rec.check("circumcenter=incenter => interior", np.maximum(-bary_min, 0.0), tol, s,
              premise=d_ci <= tol / 10, **scal)
    rec.check("equiradial and interior => circumcenter=incenter", d_ci, tol, s,
              premise=(radii_spread <= tol / 10) & (bary_min >= 10 * tol), **scal)


# ---------------------------------------------------------------------------
# suite: regularity (contrapositive coincidence theorems)


def suite_regularity(config: SuiteConfig) -> SuiteResult:
    """Non-regular orthocentric simplices must keep all four centers
    pairwise separated, and center separations must shrink along a
    near-regular perturbation sequence."""
    rec = _Recorder("regularity")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        rng = np.random.default_rng(_sub_seed(config, 2, d))
        accepted = _separated_samples(d, max(1, _per_dim(config) // 2), rng, pol)
        rec.sample(len(accepted))
        _check_separation(rec, sx._fill(accepted, ()), pol)

        # continuity sanity: separations shrink with the perturbation
        base = families.regular(d, 1.0, pol)
        dirs = rng.normal(size=base.vertices.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        deltas = np.array((1e-2, 1e-3, 1e-4))
        s = sx._fill(sx._from_vertex_rows(d, base.vertices + deltas[:, None, None] * dirs, pol), ())
        seps = centers._center_distances(s).max(axis=-1) / sx.diameter(s)
        rec.check("near-regular separation bounded by perturbation", seps, 100.0 * deltas, s,
                  delta=deltas, separation=seps)
        rec.sample()
        rec.check("separations shrink with the perturbation", seps[1:], seps[:-1],
                  delta_from=deltas[:-1], separations=seps.tolist())
    return rec.result()


def _separated_samples(d: int, per_kind: int, rng, pol: TolerancePolicy) -> list[sx.Simplex]:
    """The first ``per_kind`` acute, then obtuse, simplices drawn from
    ``rng`` whose edge lengths spread by at least 0.01; closer to regular is
    too close for the contrapositive.  Each round draws the missing acute
    rows, then the missing obtuse rows (:func:`orthocentric._sample_rows`),
    and poses and filters them as one block, so a rejected row is replaced
    by the next rows of the same stream."""
    kinds = (oc.ACUTE, oc.OBTUSE)
    accepted = {kind: [] for kind in kinds}
    while True:
        need = [per_kind - len(accepted[kind]) for kind in kinds]
        if not any(need):
            return accepted[oc.ACUTE] + accepted[oc.OBTUSE]
        bary = np.concatenate([oc._sample_rows(d, kind, k, rng) for kind, k in zip(kinds, need)])
        block = oc._construct_rows(bary, 1.0, pol)
        keep = ~(pol.spread(sx.edge_lengths(sx._fill(block, ()))) < 0.01)
        labels = [kind for kind, k in zip(kinds, need) for _ in range(k)]
        for kind, s, kept in zip(labels, block, keep.tolist()):
            if kept:
                accepted[kind].append(s)


def _check_separation(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy, prefix: str = ""):
    """The four centers of each simplex of the stack ``s`` pairwise apart."""
    limit = pol.rel * sx.diameter(s)
    for (na, nb), sep in zip(centers._CENTER_PAIRS, centers._center_distances(s).T):
        # separation must exceed the coincidence threshold: ratio < 1
        pair = f"{na}-{nb}"
        rec.check(f"{prefix}separated: {pair}", limit, sep, s, pair=pair, separation=sep)


# ---------------------------------------------------------------------------
# suite: Euler line and mid-face spheres


def suite_euler_feuerbach(config: SuiteConfig) -> SuiteResult:
    """On every orthocentric fixture: centroid on the circumcenter-
    orthocenter segment at ratio (d-1):2, the whole family of mid-face
    spheres equidistant from the k-face centroids, altitude feet on the
    facet-centroid sphere, the vertex-sum identity, and the reciprocal
    distance parameters of the orthocentric system."""
    rec = _Recorder("euler_feuerbach")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        rng = np.random.default_rng(_sub_seed(config, 3, d))
        fixtures = _family_fixtures(d, rng, pol)
        per_kind = max(1, _per_dim(config) // 2)
        bary = np.concatenate([oc._sample_rows(d, kind, per_kind, rng)
                               for kind in (oc.ACUTE, oc.OBTUSE)])
        fixtures += oc._construct_rows(bary, 1.0, pol)
        rec.sample(len(fixtures))
        _check_euler_feuerbach(rec, fixtures, pol)
    return rec.result()


@lru_cache(maxsize=16)
def _face_table(n: int):
    """Read-only (weights, level, starts) for the k-faces of n vertices,
    k = 0..n-2, grouped by k and in ``combinations`` order within a group:
    row r of ``weights`` holds 1/(k+1) on the k+1 vertices of its face and
    0 elsewhere, ``level[r]`` = k and ``starts[k]`` is the first row of k.
    Built once per n; it has 2^n - 2 rows, which the d <= 10 cap keeps small."""
    faces = [f for m in range(1, n) for f in combinations(range(n), m)]
    level = np.array([len(f) - 1 for f in faces])
    weights = np.zeros((len(faces), n))
    for r, f in enumerate(faces):
        weights[r, f] = 1.0 / len(f)
    starts = np.searchsorted(level, np.arange(n - 1))
    return sx._read_only((weights, level, starts))


def _face_centroids(s: sx.Simplex) -> np.ndarray:
    """Centroids of every k-face, k = 0..d-1, in :func:`_face_table` row
    order, from one product (per simplex of a stack): the enumerated oracle
    the closed-form mid-face spheres are measured against."""
    return _face_table(s.n)[0] @ s.vertices


def _check_euler_feuerbach(rec: _Recorder, block: list[sx.Simplex], pol: TolerancePolicy):
    s = sx._fill(block, ())  # every table is read from the stack
    if not np.all(centers.is_orthocentric(s, pol)):
        raise NumericError(f"euler_feuerbach fixture is not orthocentric at rel={pol.rel:g}")
    d = s.dim
    diam = sx.diameter(s)
    h = centers.monge_point(s)
    c, big_r = centers.circumcenter(s)
    apart, residual, ratio = centers._euler_terms(s, pol)
    rec.check("euler collinearity", residual, pol.rel * diam, s, premise=apart, ratio=ratio)
    target = (d - 1) / 2.0
    rec.check("euler ratio (d-1):2", np.abs(ratio - target), 10 * pol.rel * target, s,
              premise=apart, ratio=ratio)

    vec = (s.vertices - c[:, None]).sum(axis=-2) - (d - 1) * (h - c)
    rec.check("vertex sum identity", np.sqrt(sx._sq_norms(vec)), pol.rel * diam, s)

    # an orthocentric simplex has every sphere k = 0..d-1: row r of the face
    # table is measured against the sphere of its level, worst per level
    spheres, radii, _ = centers._sphere_rows(s, True)
    _, level, starts = _face_table(s.n)
    dists = sx._row_norms(_face_centroids(s) - spheres[:, level])
    worst = np.maximum.reduceat(np.abs(dists - radii[:, level]), starts, axis=-1)
    for k in range(d):
        rec.check(f"feuerbach k={k} equidistance", worst[:, k],
                  10 * pol.rel * radii[:, k], s, k=k, radius=radii[:, k])
        if k == 0:
            rec.check("feuerbach k=0 center is circumcenter",
                      np.sqrt(sx._sq_norms(spheres[:, 0] - c)), pol.rel * diam, s)
            rec.check("feuerbach k=0 radius is circumradius",
                      np.abs(radii[:, 0] - big_r), pol.rel * big_r, s)
        if k == d - 1:
            dist = sx._row_norms(sx.altitude_feet(s) - spheres[:, k, None])
            rec.check("altitude feet on facet-centroid sphere",
                      np.abs(dist - radii[:, k, None]).max(axis=-1),
                      10 * pol.rel * radii[:, k], s)

    sigma, rectangular, _, bary = oc._param_rows(s, pol)
    skew = ~rectangular  # lambda exists
    oc._validate_bary(bary[skew], pol)
    lam = np.ones((len(block), d + 2))
    lam[skew] = oc._lambda_rows(sigma[skew], bary[skew])
    # sum 1/lam = (1 - sum a) / sigma against sum |1/lam| = (1 + sum |a|) / |sigma|
    inv = 1.0 / lam
    rec.check("reciprocal lambda sum", np.abs(inv.sum(axis=-1)),
              pol.rel * np.abs(inv).sum(axis=-1), s, premise=skew)
    pts = np.concatenate((h[:, None], s.vertices), axis=1)
    a, b = sx._pair_index(d + 2)
    got = ((pts[:, a] - pts[:, b]) ** 2).sum(axis=-1)
    rec.check("lambda pairwise distances", np.abs(lam[:, a] + lam[:, b] - got),
              pol.rel * sx._squares(diam), s, premise=skew,
              pair=np.broadcast_to(np.stack((a, b), axis=-1), got.shape + (2,)))


# ---------------------------------------------------------------------------
# suite: rectangular simplices


def suite_rectangular(config: SuiteConfig) -> SuiteResult:
    """Closed-form leg metrics against coordinate oracles, pairwise-distinct
    centers, hypotenuse-facet lift round trips, and rejection of lifts from
    non-negative obtuseness."""
    rec = _Recorder("rectangular")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        rng = np.random.default_rng(_sub_seed(config, 4, d))
        legs = rng.uniform(0.5, 2.0, size=(_per_dim(config), d))
        block = sx._from_vertex_rows(d, families._rect_pose(legs), pol)
        rec.sample(len(block))
        _check_rectangular(rec, legs, block, pol)
        if d >= 3:
            rec.sample()
            t = oc.construct(oc._sample_rows(d - 1, oc.OBTUSE, 1, rng)[0], 1.0, pol)
            try:
                families._lift_legs(t, pol)
            except NotLiftableError:
                pass
            else:
                rec.fail("lift must reject non-negative obtuseness", t)
    return rec.result()


def _check_rectangular(rec: _Recorder, legs: np.ndarray, block: list[sx.Simplex],
                       pol: TolerancePolicy):
    """``block[r]`` is the rectangular simplex of the legs ``legs[r]`` (k, d);
    each is checked against the closed forms, one rows call for the block,
    and, for d >= 3, its hypotenuse facet lifted back to its legs (a d = 2
    facet is a segment, below the lift's domain)."""
    d = legs.shape[-1]
    s = sx._fill(block, ())  # every table is read from the stack
    m = families._rect_rows(legs)
    diam = sx.diameter(s)

    rec.check("legs volume", np.abs(m.volume - sx.volume(s)), pol.rel * m.volume, s)
    rec.check("hypotenuse facet volume",
              np.abs(m.hyp_volume - sx.facet_volumes(s)[:, d]), pol.rel * m.hyp_volume, s)
    foot = sx.altitude_feet(s)[:, d]
    rec.check("corner altitude",
              np.abs(m.altitude - np.sqrt(sx._sq_norms(foot - s.vertices[:, d]))),
              pol.rel * m.altitude, s)
    i, r = centers.incenter(s)
    rec.check("leg inradius", np.abs(m.inradius - r), pol.rel * r, s)
    rec.check("incenter equals (r, ..., r)",
              np.abs(i - m.inradius[:, None]).max(axis=-1), pol.rel * diam, s)
    c, big_r = centers.circumcenter(s)
    rec.check("leg circumradius", np.abs(m.r_squared - sx._squares(big_r)),
              pol.rel * m.r_squared, s)
    rec.check("circumcenter midpoint form",
              np.sqrt(sx._sq_norms(c - m.circumcenter)), pol.rel * diam, s)
    rec.check("hypotenuse orthocenter",
              np.sqrt(sx._sq_norms(m.hyp_orthocenter - foot)), pol.rel * diam, s)

    _check_separation(rec, s, pol, "rect ")
    bary = sx.barycentric(s, c)
    expected = np.append(np.full(d, 0.5), (2 - d) / 2.0)
    rec.check("rect circumcenter barycentrics (1/2, ..., 1/2, (2-d)/2)",
              np.abs(bary - expected).max(axis=-1), pol.rel * d, s)

    if d >= 3:
        # the hypotenuse facets (opposite the corner, vertex d) as one stack
        hyp = sx._face_pose(s.vertices[:, sx.facet_indices(s)[d]])
        facets = sx._fill(sx._from_vertex_rows(d - 1, hyp, pol), ())
        lifted = families._lift_legs(facets, pol)
        rec.check("lift round trip", np.abs(lifted - legs).max(axis=-1),
                  10 * pol.rel * legs.max(axis=-1), s, legs=legs, lifted=lifted)


# ---------------------------------------------------------------------------


_SUITES = {
    "center_equivalences": suite_center_equivalences,
    "regularity": suite_regularity,
    "euler_feuerbach": suite_euler_feuerbach,
    "rectangular": suite_rectangular,
}


def run_all(config: SuiteConfig) -> VerificationReport:
    """Run the requested suites; deterministic for a fixed config seed."""
    results = tuple(_SUITES[name](config) for name in config.suites)
    return VerificationReport(
        passed=all(r.passed for r in results),
        seed=config.seed,
        suites=results,
    )
