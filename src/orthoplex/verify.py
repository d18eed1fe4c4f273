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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np

from .errors import InputError, OrthoplexError
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


# The least tolerance the checks resolve above round-off: of the 300 runs of
# seeds 0..149 at d_max 6 and 10, rel 7e-13 fails none, while 5e-13, 2e-13 and
# 1e-13 fail 1, 3 and 12, all on "circumcenter equidistance contract".
_REL_FLOOR = 1e-12


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
        if not self.policy.rel >= _REL_FLOOR:
            raise InputError(f"tolerance rel={self.policy.rel!r} must be at least "
                             f"{_REL_FLOOR:g}, below which the checks fail on round-off")
        margin = oc._acute_margin(self.d_max)  # the least over d_min..d_max
        if not self.policy.rel < margin:
            raise InputError(f"tolerance rel={self.policy.rel!r} must be below {margin:g}, the "
                             "acute sample margin min(0.01, 2/(d_max+1)^2)")
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

    A check is evaluated over a block of samples: ``simplex`` is the
    block's stack, whose samples run along the first axis of the residual
    (a residual may stop before the last rows of the stack), or one simplex
    (or None), a block of one.  Further axes hold values checked in turn.
    :meth:`check` only queues its arguments, and of the simplex only its
    vertices, so a stack's tables are freed when its block ends.  The queue
    is settled by :meth:`result`, or as soon as it holds more than
    ``simplex._SLICE_VALUES`` residual values, the one slice budget.  A
    settle brings each check's allowance and premise to its residual's shape
    once and evaluates the whole queue in one flat pass (one ratio array, one
    max, one violation test).  The counterexample is the first violation in
    queue order: the earliest block, then the earliest check in code order,
    then that check's earliest sample and value; a later settle only raises
    ``max_residual``.  Queued arrays are fresh or read-only tables, so
    nothing changes before the settle.
    """

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self._max_ratio = 0.0
        self._counterexample: dict | None = None
        self._queue = []
        self._queued = 0  # residual values in the queue
        self._t0 = time.perf_counter()

    def check(self, label: str, residual, allowed, simplex: sx.Simplex | None = None,
              premise=True, **extra):
        """Compare ``residual`` with ``allowed`` where ``premise`` holds: both
        (and the premise) are arrays over the block or numbers, a shorter
        shape standing for its leading axes.  An array in ``extra`` is read
        at the violation's index, on as many axes as it has; any other
        value is the same for every sample."""
        vertices = None if simplex is None else simplex.vertices
        self._queue.append((label, residual, allowed, vertices, premise, extra))
        self._queued += np.size(residual)
        if self._queued > sx._SLICE_VALUES:
            self._settle()

    @contextmanager
    def guard(self, label: str, **extra):
        """Run the ``with`` body; an ``OrthoplexError`` it raises fails the
        check ``label``, naming the error, and the suite goes on.  What the
        body queued before the raise stays queued."""
        try:
            yield
        except OrthoplexError as exc:
            self.check(label, 1.0, 0.5, **extra, error=f"{type(exc).__name__}: {exc}")

    def _settle(self):
        """Evaluate the queued checks in one flat pass."""
        queue, self._queue, self._queued = self._queue, [], 0
        if not queue:
            return
        residuals = [np.asarray(entry[1], dtype=float) for entry in queue]
        ends = list(accumulate(r.size for r in residuals))
        allowed = []
        applies = None
        for j, (residual, (_, _, allow, _, premise, _)) in enumerate(zip(residuals, queue)):
            allow = np.asarray(allow, dtype=float)
            if allow.shape != residual.shape:
                allow = (np.full(residual.shape, allow) if allow.ndim == 0 else
                         np.broadcast_to(_leading(allow, residual.ndim), residual.shape))
            allowed.append(allow)
            if premise is not True:
                if applies is None:
                    applies = np.ones(ends[-1], dtype=bool)
                at = applies[ends[j] - residual.size:ends[j]].reshape(residual.shape)
                at[...] = _leading(np.asarray(premise), residual.ndim)
        res = np.concatenate(residuals, axis=None)
        alw = np.concatenate(allowed, axis=None)
        ratio, bad = _ratios(res, alw), ~(res <= alw)
        if applies is not None:
            ratio, bad = ratio[applies], bad & applies
        if ratio.size:
            top = float(ratio.max())
            # NaN on either side: infinite, and a violation below
            self._max_ratio = max(self._max_ratio, top if top == top else np.inf)
        if self._counterexample is None and bad.any():  # the first violation in queue order
            flat = int(bad.argmax())
            j = int(np.searchsorted(ends, flat, side="right"))
            at = np.unravel_index(flat - ends[j] + residuals[j].size, residuals[j].shape)
            self._locate(queue[j], at, float(res[flat]), float(alw[flat]))

    def _locate(self, entry, at: tuple, residual: float, allowed: float):
        """Record the violation at index ``at`` of one queued check as the
        counterexample."""
        label, _, _, vertices, _, extra = entry
        self._counterexample = {
            "check": label,
            "residual": residual,
            "allowed": allowed,
            "residuals": {
                k: _plain(v[at[: v.ndim]] if isinstance(v, np.ndarray) else v)
                for k, v in extra.items()
            },
        }
        if vertices is not None:
            self._counterexample["simplex"] = {
                "dim": vertices.shape[-1],
                "vertices": vertices[at[: vertices.ndim - 2]].tolist(),
            }

    def result(self) -> SuiteResult:
        self._settle()
        return SuiteResult(
            suite=self.name,
            passed=self._counterexample is None,
            samples=self.samples,
            max_residual=self._max_ratio,
            counterexample=self._counterexample,
            elapsed_ms=int((time.perf_counter() - self._t0) * 1000),
        )


def _ratios(residual: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """residual / allowed; where the allowance is 0 (an exact coincidence in
    a separation check), 0 for a residual <= 0 and infinite otherwise."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(allowed != 0, residual / allowed, np.where(residual <= 0, 0.0, np.inf))


def _leading(x: np.ndarray, ndim: int) -> np.ndarray:
    """``x`` with unit axes appended up to ``ndim``, so that its axes meet
    the leading axes of an ``ndim``-axis array."""
    return x.reshape(x.shape + (1,) * (ndim - x.ndim)) if x.ndim < ndim else x


def _sub_seed(config: SuiteConfig, *parts: int) -> int:
    ss = np.random.SeedSequence([config.seed, *parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _random_simplices(d: int, k: int, rng, policy: TolerancePolicy,
                      head: np.ndarray | None = None) -> sx.Simplex:
    """k Gaussian d-simplices drawn from ``rng`` as one (k, d+1, d) stack, led
    by the vertex arrays ``head`` (m, d+1, d) if given, under the same
    degeneracy decision: a degenerate head row raises.  A degenerate draw
    is dropped and only the missing count is drawn again, so the stream
    gives the samples a loop drawing each until it is valid would."""
    head = np.empty((0, d + 1, d)) if head is None else head
    parts, got = [], 0
    while got < k:
        draws = rng.normal(0.0, 1.0, size=(k - got, d + 1, d))
        rows = np.concatenate((head, draws))
        parts.append(sx._from_vertex_rows(d, rows, policy, drop_from=len(head)))
        got += len(parts[-1].vertices) - len(head)
        head = head[:0]
    return parts[0] if len(parts) == 1 else sx._stack(parts)


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
        with rec.guard("block completes", d=d):
            rng = np.random.default_rng(_sub_seed(config, 1, d))
            fixtures = _family_fixtures(d, rng)
            if d >= 3 and families.equiradial_admissible(d, 2):
                for branch in (1, 2):  # an admissible pair must build
                    with rec.guard("admissible equiradial fixture builds",
                                   d=d, m=2, branch=branch):
                        bary = families._equiradial_solution(d, 2, branch, pol)[0]
                        fixtures.append(oc._pose_rows(bary, 1.0, pol))
            block = _random_simplices(d, _per_dim(config), rng, pol, np.array(fixtures))
            rec.samples += len(block.vertices)
            _check_equivalences(rec, block, pol)
    return rec.result()


def _family_fixtures(d: int, rng) -> list[np.ndarray]:
    """The vertex arrays of the regular d-simplex of edge 1, of a rectangular
    one with legs drawn from ``rng`` and, for d >= 4, of the equiradial
    kite, all posed and not yet decided: the block's degeneracy decision
    is their only one."""
    fixtures = [families._regular(d, 1.0), families._rect_pose(rng.uniform(0.5, 2.0, size=d))]
    if d >= 4:
        fixtures.append(families._kite_pose(families.equiradial_kite(d)))
    return fixtures


def _check_equivalences(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy):
    tol = pol.rel
    diam = sx.diameter(s)
    c, big_r = centers.circumcenter(s)
    i, inr = centers.incenter(s)
    # _CENTER_PAIRS order: G-C, G-I, G-M, C-I, C-M, I-M
    d_gc, d_ig, _, d_ci = (centers._center_distances(s)[:, :4] / diam[:, None]).T

    # contract checks keep the suite sensitive to faulty center
    # implementations (the equivalence implications alone are blind to
    # mutations that preserve symmetric fixtures)
    vertex_dists = sx._row_norms(s.vertices - c[:, None])
    # the incenter projected onto every facet, in slices of samples whose
    # (n, d, d) facet arrays hold at most _SLICE_VALUES values
    facet_dists, step = np.empty(s.vertices.shape[:-1]), sx._slice_step(s.n * s.dim**2)
    for r in range(0, len(i), step):
        rows = slice(r, r + step)
        facets = s.vertices[rows][:, sx.facet_indices(s)]
        facet_dists[rows] = sx._row_norms(
            i[rows, None] - sx.project_to_affine_hull(i[rows, None], facets))

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
    deltas = np.array((1e-2, 1e-3, 1e-4))
    for d in range(config.d_min, config.d_max + 1):
        with rec.guard("block completes", d=d):
            rng = np.random.default_rng(_sub_seed(config, 2, d))
            rows = _separated_samples(d, max(1, _per_dim(config) // 2), rng, pol)
            # continuity sanity: separations shrink with the perturbation; the
            # three near-regular simplices follow the samples in the block
            base = families._regular(d, 1.0)
            dirs = rng.normal(size=base.shape)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            near = base + deltas[:, None, None] * dirs
            s = sx._from_vertex_rows(d, np.concatenate((rows, near)), pol)
            k = len(rows)
            rec.samples += k
            _check_separation(rec, s, pol, rows=k)
            seps = centers._center_distances(s).max(axis=-1) / sx.diameter(s)
            rec.check("near-regular separation bounded by perturbation", seps,
                      np.pad(100.0 * deltas, (k, 0)), s, premise=np.arange(len(seps)) >= k,
                      delta=np.pad(deltas, (k, 0)), separation=seps)
            rec.samples += 1
            seps = seps[k:]
            rec.check("separations shrink with the perturbation", seps[1:], seps[:-1],
                      delta_from=deltas[:-1], separations=seps.tolist())
    return rec.result()


def _separated_samples(d: int, per_kind: int, rng, pol: TolerancePolicy) -> np.ndarray:
    """The vertex arrays (2 per_kind, d+1, d), posed as :func:`orthocentric.construct`
    poses them and not yet decided, of the first ``per_kind`` acute, then
    obtuse, simplices drawn from ``rng`` whose edge lengths spread by at
    least 0.01; closer to regular is too close for the contrapositive.
    Each round draws the missing acute, then obtuse, rows
    (:func:`orthocentric._sample_rows`) and poses and filters them as one
    block, so a rejected row is replaced by the next rows of the same
    stream."""
    acute, obtuse = [], []  # the accepted rows of each kind, in stream order
    while True:
        need = [per_kind - len(acute), per_kind - len(obtuse)]
        if not any(need):
            return np.array(acute + obtuse)
        bary = np.concatenate([oc._sample_rows(d, kind, k, rng)
                               for kind, k in zip((oc.ACUTE, oc.OBTUSE), need)])
        rows = oc._pose_rows(bary, 1.0, pol)
        keep = ~(pol.spread(np.sqrt(sx._pair_rows(rows))) < 0.01)
        acute += list(rows[:need[0]][keep[:need[0]]])
        obtuse += list(rows[need[0]:][keep[need[0]:]])


def _check_separation(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy, prefix: str = "",
                      rows: int | None = None):
    """The four centers of each simplex of the stack ``s``, or of its first
    ``rows`` simplices, pairwise apart."""
    limit = pol.rel * sx.diameter(s)[:rows]
    for (na, nb), sep in zip(centers._CENTER_PAIRS, centers._center_distances(s)[:rows].T):
        # separation must exceed the coincidence threshold: ratio < 1
        pair = f"{na}-{nb}"
        rec.check(f"{prefix}separated: {pair}", limit, sep, s, pair=pair, separation=sep)


# ---------------------------------------------------------------------------
# suite: Euler line and mid-face spheres


def suite_euler_feuerbach(config: SuiteConfig) -> SuiteResult:
    """On every orthocentric fixture: the whole family of mid-face spheres
    equidistant from the k-face centroids, the k = 0 sphere's radius the
    circumradius, altitude feet on the facet-centroid sphere, and the
    distance parameters lambda of the orthocentric system.  H is the Monge
    point ((d+1) G - 2 C) / (d - 1), so G on CH at ratio (d-1):2 holds by
    construction; the lambda checks carry "H is the orthocenter"."""
    rec = _Recorder("euler_feuerbach")
    pol = config.policy
    for d in range(config.d_min, config.d_max + 1):
        with rec.guard("block completes", d=d):
            rng = np.random.default_rng(_sub_seed(config, 3, d))
            fixtures = np.array(_family_fixtures(d, rng))
            per_kind = max(1, _per_dim(config) // 2)
            bary = np.concatenate([oc._sample_rows(d, kind, per_kind, rng)
                                   for kind in (oc.ACUTE, oc.OBTUSE)])
            rows = np.concatenate((fixtures, oc._pose_rows(bary, 1.0, pol)))
            block = sx._from_vertex_rows(d, rows, pol)
            rec.samples += len(block.vertices)
            _check_euler_feuerbach(rec, block, pol)
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


def _face_centroids(vertices: np.ndarray) -> np.ndarray:
    """Centroids of every k-face, k = 0..d-1, of the vertex rows (..., n, d)
    in :func:`_face_table` row order, from one product per simplex: the
    enumerated oracle the closed-form mid-face spheres are measured against."""
    return _face_table(vertices.shape[-2])[0] @ vertices


def _check_euler_feuerbach(rec: _Recorder, s: sx.Simplex, pol: TolerancePolicy):
    sigma, rectangular, _, bary = oc._param_rows(s, pol)  # a non-orthocentric row raises
    d = s.dim
    big_r = centers.circumcenter(s)[1]

    # an orthocentric simplex has every sphere k = 0..d-1: row r of the face
    # table is measured against the sphere of its level, worst per level, in
    # slices of samples whose face arrays hold at most _SLICE_VALUES values
    spheres, radii, _ = centers._sphere_rows(s, True)
    _, level, starts = _face_table(s.n)
    worst, step = np.empty_like(radii), sx._slice_step(len(level) * d)
    for r in range(0, len(radii), step):
        rows = slice(r, r + step)
        dists = sx._row_norms(_face_centroids(s.vertices[rows]) - spheres[rows, level])
        worst[rows] = np.maximum.reduceat(np.abs(dists - radii[rows, level]), starts, axis=-1)
    for k in range(d):
        rec.check(f"feuerbach k={k} equidistance", worst[:, k],
                  10 * pol.rel * radii[:, k], s, k=k, radius=radii[:, k])
        if k == 0:
            rec.check("feuerbach k=0 radius is circumradius",
                      np.abs(radii[:, 0] - big_r), pol.rel * big_r, s)
        if k == d - 1:
            dist = sx._row_norms(sx.altitude_feet(s) - spheres[:, k, None])
            rec.check("altitude feet on facet-centroid sphere",
                      np.abs(dist - radii[:, k, None]).max(axis=-1),
                      10 * pol.rel * radii[:, k], s)

    skew = ~rectangular  # lambda exists
    lam = np.ones((len(s.vertices), d + 2))
    lam[skew] = oc._lambda_rows(sigma[skew], bary[skew])
    # sum 1/lam = (1 - sum a) / sigma against sum |1/lam| = (1 + sum |a|) / |sigma|
    inv = 1.0 / lam
    rec.check("reciprocal lambda sum", np.abs(inv.sum(axis=-1)),
              pol.rel * np.abs(inv).sum(axis=-1), s, premise=skew)
    got = sx._pair_rows(np.concatenate((centers.monge_point(s)[:, None], s.vertices), axis=1))
    a, b = sx._pair_index(d + 2)
    diam = sx.diameter(s)
    rec.check("lambda pairwise distances", np.abs(lam[:, a] + lam[:, b] - got),
              pol.rel * (diam * diam), s, premise=skew,
              pair=np.broadcast_to(np.stack((a, b), axis=-1), got.shape + (2,)))


# ---------------------------------------------------------------------------
# suite: rectangular simplices


def suite_rectangular(config: SuiteConfig) -> SuiteResult:
    """Closed-form leg metrics against coordinate oracles, pairwise-distinct
    centers, hypotenuse-facet lift round trips, and rejection of lifts from
    non-negative obtuseness.

    Each block is drawn from its own generator (:func:`_rect_draw`), block
    m+1 when the stack of dimension m is built.  That stack holds block m's
    rectangular simplices, then block m+1's hypotenuse facets (opposite the
    corner, its last vertex, from one stacked QR) and rejection simplex: one
    degeneracy decision and one set of tables per dimension, freed before
    the next stack is built.  Block m's closed-form checks are queued first,
    then block m+1's lift checks, whose simplices are those facet and
    rejection rows of stack m.  The stacks start at m = 2: a d = 2 facet is
    a segment, below the lift's domain."""
    rec = _Recorder("rectangular")
    pol = config.policy
    low = max(2, config.d_min - 1)
    legs, rejects = _rect_draw(config, low) if low == config.d_min else (np.empty((0, low)), None)
    for m in range(low, config.d_max + 1):
        up = _rect_draw(config, m + 1) if m < config.d_max else None
        with rec.guard("block completes", d=m):
            rows = [families._rect_pose(legs)]
            if up is not None:
                rows += [sx._face_pose(families._rect_pose(up[0])[:, :-1]),
                         oc._pose_rows(up[1], 1.0, pol)]
            s = sx._from_vertex_rows(m, np.concatenate(rows), pol)
            del rows  # a copy of the stack's vertices
            if m >= config.d_min:
                rec.samples += len(legs) + (0 if rejects is None else len(rejects))
                _check_rectangular(rec, legs, s, pol)
            if up is not None:
                lifted, stuck = families._lift_rows(s, pol)
                k, end = len(legs), len(legs) + len(up[0])
                lifted = lifted[k:end]
                rec.check("lift round trip", np.abs(lifted - up[0]).max(axis=-1),
                          10 * pol.rel * up[0].max(axis=-1), sx._stack([s], np.arange(k, end)),
                          legs=up[0], lifted=lifted)
                rec.check("lift must reject non-negative obtuseness",
                          np.where(stuck[end:], 0.0, 1.0), 0.5,
                          sx._stack([s], np.arange(end, len(stuck))))
            del s  # its tables go before the next stack is built
        if up is not None:
            legs, rejects = up
    return rec.result()


def _rect_draw(config: SuiteConfig, d: int):
    """(legs, rejects) of the rectangular block of dimension d, from its own
    generator: the legs (k, d), then, for d >= 3, one obtuse (d-1)-tuple
    (1, d) whose simplex the lift must reject (else None)."""
    rng = np.random.default_rng(_sub_seed(config, 4, d))
    legs = rng.uniform(0.5, 2.0, size=(_per_dim(config), d))
    return legs, (oc._sample_rows(d - 1, oc.OBTUSE, 1, rng) if d >= 3 else None)


def _check_rectangular(rec: _Recorder, legs: np.ndarray, s: sx.Simplex, pol: TolerancePolicy):
    """Row r of the stack ``s`` is the rectangular simplex of the legs
    ``legs[r]`` (k, d), checked against the closed forms, one rows call for
    the block; the rows of ``s`` after the first k are not checked here."""
    k, d = legs.shape
    m = families._rect_rows(legs)
    diam = sx.diameter(s)[:k]

    rec.check("legs volume", np.abs(m.volume - sx.volume(s)[:k]), pol.rel * m.volume, s)
    rec.check("hypotenuse facet volume",
              np.abs(m.hyp_volume - sx.facet_volumes(s)[:k, d]), pol.rel * m.hyp_volume, s)
    foot = sx.altitude_feet(s)[:k, d]
    rec.check("corner altitude",
              np.abs(m.altitude - np.sqrt(sx._sq_norms(foot - s.vertices[:k, d]))),
              pol.rel * m.altitude, s)
    i, r = (x[:k] for x in centers.incenter(s))
    rec.check("leg inradius", np.abs(m.inradius - r), pol.rel * r, s)
    rec.check("incenter equals (r, ..., r)",
              np.abs(i - m.inradius[:, None]).max(axis=-1), pol.rel * diam, s)
    center, radius = centers.circumcenter(s)
    c, big_r = center[:k], radius[:k]
    rec.check("leg circumradius", np.abs(m.r_squared - big_r * big_r),
              pol.rel * m.r_squared, s)
    rec.check("circumcenter midpoint form",
              np.sqrt(sx._sq_norms(c - m.circumcenter)), pol.rel * diam, s)
    rec.check("hypotenuse orthocenter",
              np.sqrt(sx._sq_norms(m.hyp_orthocenter - foot)), pol.rel * diam, s)

    _check_separation(rec, s, pol, "rect ", rows=k)
    bary = sx.barycentric(s, center)[:k]
    expected = np.append(np.full(d, 0.5), (2 - d) / 2.0)
    rec.check("rect circumcenter barycentrics (1/2, ..., 1/2, (2-d)/2)",
              np.abs(bary - expected).max(axis=-1), pol.rel * d, s)


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
