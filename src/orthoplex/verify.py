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
    DegenerateSimplexError,
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
    """Accumulates checks; the first violation becomes the counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.max_ratio = 0.0
        self.counterexample: dict | None = None
        self._t0 = time.perf_counter()

    def sample(self):
        self.samples += 1

    def check(self, label: str, residual: float, allowed: float,
              simplex: sx.Simplex | None = None, **extra):
        if allowed:
            ratio = float(residual) / float(allowed)
        else:  # exact coincidence in a separation check
            ratio = 0.0 if residual <= 0 else float("inf")
        if ratio != ratio:  # NaN on either side: infinite, and a violation below
            ratio = float("inf")
        self.max_ratio = max(self.max_ratio, ratio)
        if not residual <= allowed and self.counterexample is None:
            payload = {
                "check": label,
                "residual": float(residual),
                "allowed": float(allowed),
                "residuals": {k: _plain(v) for k, v in extra.items()},
            }
            if simplex is not None:
                payload["simplex"] = {
                    "dim": simplex.dim,
                    "vertices": simplex.vertices.tolist(),
                }
            self.counterexample = payload

    def check_pairs(self, label: str, residuals: np.ndarray, allowed: float,
                    simplex: sx.Simplex, a: np.ndarray, b: np.ndarray):
        """:meth:`check` on each residual in turn, the one for pair (a[k], b[k])
        as ``pair``: records the largest ratio and the first violation."""
        for k in np.flatnonzero(~(residuals <= allowed))[:1].tolist() + [int(np.argmax(residuals))]:
            self.check(label, residuals[k], allowed, simplex, pair=(a[k], b[k]))

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


def _sub_seed(config: SuiteConfig, *parts: int) -> int:
    ss = np.random.SeedSequence([config.seed, *parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _random_simplex(d: int, rng, policy) -> sx.Simplex:
    while True:
        try:
            return sx.from_vertices(d, rng.normal(0.0, 1.0, size=(d + 1, d)), policy)
        except DegenerateSimplexError:
            continue


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
    tol = pol.rel
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
        for _ in range(_per_dim(config)):
            fixtures.append(_random_simplex(d, rng, pol))
        sx._fill(fixtures, (sx.diameter, sx.facet_circumradii, centers.monge_point))
        for s in fixtures:
            rec.sample()
            _check_equivalences(rec, s, pol, tol)
    return rec.result()


def _family_fixtures(d: int, rng, policy: TolerancePolicy) -> list[sx.Simplex]:
    """The regular d-simplex of edge 1, a rectangular one with legs drawn
    from ``rng`` and, for d >= 4, the equiradial kite."""
    legs = tuple(rng.uniform(0.5, 2.0, size=d))
    fixtures = [families.regular(d, 1.0, policy),
                families.rectangular(families.RectSpec(d, legs), policy)]
    if d >= 4:
        fixtures.append(families.kite(families.equiradial_kite(d, policy), policy))
    return fixtures


def _check_equivalences(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy, tol: float):
    diam = sx.diameter(s)
    c, big_r = centers.circumcenter(s)
    i, inr = centers.incenter(s)
    # _CENTER_PAIRS order: G-C, G-I, G-M, C-I, C-M, I-M
    d_gc, d_ig, _, d_ci = (centers._center_distances(s)[:4] / diam).tolist()

    # contract checks keep the suite sensitive to faulty center
    # implementations (the equivalence implications alone are blind to
    # mutations that preserve symmetric fixtures)
    vertex_dists = sx._row_norms(s.vertices - c)
    facet_dists = sx._row_norms(i - sx.project_to_affine_hull(i, s.vertices[sx.facet_indices(s)]))

    # facet volume i = d V |n_i|: the spread of |n_i| (shape_predicates' equiareal rule)
    areas_spread = pol.spread(sx._frame(s)[3])
    wde_spread = pol.spread(sx.facet_sq_edge_sums(s))
    radii_spread = pol.spread(sx.facet_circumradii(s))
    bary_min = float(sx.barycentric(s, c).min())

    scal = dict(d_ig=d_ig, d_gc=d_gc, d_ci=d_ci, areas_spread=areas_spread,
                wde_spread=wde_spread, radii_spread=radii_spread, cc_bary_min=bary_min)

    rec.check("circumcenter equidistance contract",
              float(np.abs(vertex_dists - big_r).max()), tol * diam, s, **scal)
    rec.check("incenter facet-distance contract",
              float(np.abs(facet_dists - inr).max()), tol * diam, s, **scal)

    if d_ig <= tol / 10:
        rec.check("incenter=centroid => equiareal", areas_spread, tol, s, **scal)
    if areas_spread <= tol / 10:
        rec.check("equiareal => incenter=centroid", d_ig, tol, s, **scal)
    if d_gc <= tol / 10:
        rec.check("centroid=circumcenter => well-distributed edges", wde_spread, tol, s, **scal)
    if wde_spread <= tol / 10:
        rec.check("well-distributed edges => centroid=circumcenter", d_gc, tol, s, **scal)
    if d_ci <= tol / 10:
        rec.check("circumcenter=incenter => equiradial", radii_spread, tol, s, **scal)
        rec.check("circumcenter=incenter => interior", max(-bary_min, 0.0), tol, s, **scal)
    if radii_spread <= tol / 10 and bary_min >= 10 * tol:
        rec.check("equiradial and interior => circumcenter=incenter", d_ci, tol, s, **scal)


# ---------------------------------------------------------------------------
# suite: regularity (contrapositive coincidence theorems)


def suite_regularity(config: SuiteConfig) -> SuiteResult:
    """Non-regular orthocentric simplices must keep all four centers
    pairwise separated, and center separations must shrink along a
    near-regular perturbation sequence."""
    rec = _Recorder("regularity")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        per_kind = max(1, _per_dim(config) // 2)
        accepted = []
        for kind in (oc.ACUTE, oc.OBTUSE):
            produced = 0
            attempt = 0
            while produced < per_kind:
                p = oc.sample_params(d, kind, _sub_seed(config, 2, d, attempt))
                attempt += 1
                s = oc.construct(p.bary, 1.0, pol)
                if pol.spread(sx.edge_lengths(s)) < 0.01:
                    continue  # too close to regular for the contrapositive
                produced += 1
                accepted.append(s)
        sx._fill(accepted, (sx.diameter, centers.monge_point))
        for s in accepted:
            rec.sample()
            _check_separation(rec, s, pol)

        # continuity sanity: separations shrink with the perturbation
        rng = np.random.default_rng(_sub_seed(config, 2, d, 10**6))
        base = families.regular(d, 1.0, pol)
        dirs = rng.normal(size=base.vertices.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        seps = []
        for delta in (1e-2, 1e-3, 1e-4):
            s = sx.from_vertices(d, base.vertices + delta * dirs, pol)
            sep = float(centers._center_distances(s).max()) / sx.diameter(s)
            rec.check(
                "near-regular separation bounded by perturbation",
                sep,
                100.0 * delta,
                s,
                delta=delta,
                separation=sep,
            )
            seps.append(sep)
        rec.sample()
        for k in range(len(seps) - 1):
            rec.check(
                "separations shrink with the perturbation",
                seps[k + 1],
                seps[k],
                delta_from=(1e-2, 1e-3, 1e-4)[k],
                separations=seps,
            )
    return rec.result()


def _check_separation(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy, prefix: str = ""):
    diam = sx.diameter(s)
    for (na, nb), sep in zip(centers._CENTER_PAIRS, centers._center_distances(s).tolist()):
        # separation must exceed the coincidence threshold: ratio < 1
        pair = f"{na}-{nb}"
        rec.check(f"{prefix}separated: {pair}", pol.rel * diam, sep, s, pair=pair,
                  separation=sep)


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
        fixtures = _family_fixtures(d, np.random.default_rng(_sub_seed(config, 3, d)), pol)
        per_kind = max(1, _per_dim(config) // 2)
        for kind in (oc.ACUTE, oc.OBTUSE):
            for i in range(per_kind):
                p = oc.sample_params(d, kind, _sub_seed(config, 3, d, i))
                fixtures.append(oc.construct(p.bary, 1.0, pol))
        sx._fill(fixtures, (sx.diameter, sx.edge_perpendicularity_residual,
                            centers._mid_face_spheres, centers._facet_sphere))
        for s in fixtures:
            rec.sample()
            _check_euler_feuerbach(rec, s, pol)
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
    order, from one product: the enumerated oracle the closed-form mid-face
    spheres are measured against."""
    return _face_table(s.n)[0] @ s.vertices


def _check_euler_feuerbach(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy):
    d = s.dim
    diam = sx.diameter(s)
    h = centers.orthocenter(s, pol)
    if h is None:
        raise NumericError(f"euler_feuerbach fixture is not orthocentric at rel={pol.rel:g}")
    c, big_r = centers.circumcenter(s)
    euler = centers.euler_line(s, pol)
    if not euler.coincident:
        rec.check("euler collinearity", euler.collinearity_residual, pol.rel * diam, s,
                  ratio=euler.ratio)
        target = (d - 1) / 2.0
        rec.check("euler ratio (d-1):2", abs(euler.ratio - target), 10 * pol.rel * target,
                  s, ratio=euler.ratio)

    vec = (s.vertices - c).sum(axis=0) - (d - 1) * (h - c)
    rec.check("vertex sum identity", sx._norm(vec), pol.rel * diam, s)

    # an orthocentric simplex has every sphere k = 0..d-1: row r of the face
    # table is measured against the sphere of its level, worst per level
    spheres = centers.feuerbach_spheres(s, pol)
    _, level, starts = _face_table(s.n)
    mid = np.array([sp.center for sp in spheres])
    radii = np.array([sp.radius for sp in spheres])
    dists = sx._row_norms(_face_centroids(s) - mid[level])
    worst = np.maximum.reduceat(np.abs(dists - radii[level]), starts).tolist()
    for sphere in spheres:
        k = sphere.k
        rec.check(f"feuerbach k={k} equidistance", worst[k],
                  10 * pol.rel * sphere.radius, s, k=k, radius=sphere.radius)
        if k == 0:
            rec.check("feuerbach k=0 center is circumcenter",
                      sx._norm(sphere.center - c), pol.rel * diam, s)
            rec.check("feuerbach k=0 radius is circumradius",
                      abs(sphere.radius - big_r), pol.rel * big_r, s)
        if k == d - 1:
            dist = sx._row_norms(sx.altitude_feet(s) - sphere.center)
            rec.check("altitude feet on facet-centroid sphere",
                      float(np.abs(dist - sphere.radius).max()),
                      10 * pol.rel * sphere.radius, s)

    p = oc.params_of(s, pol)
    if not p.rectangular:
        vals = oc.lambda_params(p).all_values
        # sum 1/lam = (1 - sum a) / sigma against sum |1/lam| = (1 + sum |a|) / |sigma|
        inv = 1.0 / vals
        rec.check("reciprocal lambda sum", abs(float(inv.sum())),
                  pol.rel * float(np.abs(inv).sum()), s)
        pts = np.vstack([h, s.vertices])
        a, b = sx._pair_index(d + 2)
        got = ((pts[a] - pts[b]) ** 2).sum(axis=1)
        rec.check_pairs("lambda pairwise distances", np.abs(vals[a] + vals[b] - got),
                        pol.rel * diam**2, s, a, b)


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
        samples = [_rect_sample(families.RectSpec(d, tuple(rng.uniform(0.5, 2.0, size=d))), pol)
                   for _ in range(_per_dim(config))]
        sx._fill([s for _, s, _ in samples], (sx.diameter, sx.facet_volumes, centers.monge_point))
        sx._fill([f for *_, f in samples if f is not None],
                 (sx.diameter, sx.edge_perpendicularity_residual, centers._monge_gram))
        for sample in samples:
            rec.sample()
            _check_rectangular(rec, *sample, pol)
        if d >= 3:
            rec.sample()
            p = oc.sample_params(d - 1, oc.OBTUSE, _sub_seed(config, 4, d, 7))
            t = oc.construct(p.bary, 1.0, pol)
            try:
                families._lift_spec(t, pol)
            except NotLiftableError:
                pass
            else:
                rec.fail("lift must reject non-negative obtuseness", t)
    return rec.result()


def _rect_sample(spec: families.RectSpec, pol: TolerancePolicy):
    """(spec, s, facet): the rectangular simplex of ``spec`` and its
    hypotenuse facet; None for d = 2, whose facet is a segment, below the
    lift's domain."""
    s = families.rectangular(spec, pol)
    return spec, s, (sx.face(s, sx.facet_indices(s)[spec.d], pol) if spec.d >= 3 else None)


def _check_rectangular(rec: _Recorder, spec: families.RectSpec, s: sx.Simplex,
                       facet: sx.Simplex | None, pol: TolerancePolicy):
    d = spec.d
    m = families.rect_metrics(spec)
    diam = sx.diameter(s)
    scale = max(spec.legs)

    rec.check("legs volume", abs(m.volume - sx.volume(s)), pol.rel * m.volume, s)
    rec.check("hypotenuse facet volume",
              abs(m.hyp_volume - sx.facet_volumes(s)[d]), pol.rel * m.hyp_volume, s)
    foot = sx.altitude_feet(s)[d]
    rec.check("corner altitude", abs(m.altitude - sx._norm(foot - s.vertices[d])),
              pol.rel * m.altitude, s)
    i, r = centers.incenter(s)
    rec.check("leg inradius", abs(m.inradius - r), pol.rel * r, s)
    rec.check("incenter equals (r, ..., r)",
              float(np.abs(i - m.inradius).max()), pol.rel * diam, s)
    c, big_r = centers.circumcenter(s)
    rec.check("leg circumradius", abs(m.r_squared - big_r**2), pol.rel * m.r_squared, s)
    rec.check("circumcenter midpoint form",
              sx._norm(c - m.circumcenter), pol.rel * diam, s)
    rec.check("hypotenuse orthocenter",
              sx._norm(m.hyp_orthocenter - foot), pol.rel * diam, s)

    _check_separation(rec, s, pol, "rect ")
    bary = sx.barycentric(s, c)
    expected = np.append(np.full(d, 0.5), (2 - d) / 2.0)
    rec.check("rect circumcenter barycentrics (1/2, ..., 1/2, (2-d)/2)",
              float(np.abs(bary - expected).max()), pol.rel * d, s)

    if facet is not None:
        lifted_spec = families._lift_spec(facet, pol)
        rec.check("lift round trip",
                  float(np.abs(np.subtract(lifted_spec.legs, spec.legs)).max()),
                  10 * pol.rel * scale, s, legs=list(spec.legs),
                  lifted=list(lifted_spec.legs))


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
