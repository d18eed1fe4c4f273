"""The four benchmark workloads: classes, seeded inputs, the op, and an
output oracle built from the paper's closed forms.

A workload is a set of op classes (a dimension, a kind, or a verify suite).
Ops run in rounds; each round runs every class once, in a seeded order, so
a slow stretch of the machine is spread over all classes.  The input of an
op depends only on (workload seed, round, class), never on the order.

The oracle recomputes what it checks with numpy from the generating
parameters; it never calls into orthoplex.  BENCHMARK.json gives the
reason for each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from math import factorial

import numpy as np

# The library's default relative tolerance (TolerancePolicy.rel); the
# sphere-residual check is stated relative to it.
REL = 1e-9


def derive_seed(seed: int, *parts: int) -> int:
    """Non-negative 63-bit integer derived from the workload seed."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)


def _rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *parts]))


# ---------------------------------------------------------------------------
# input generators (benchmark-owned, independent of orthoplex)


def ortho_bary(d: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Orthocenter barycentrics of an admissible acute or obtuse simplex,
    kept well away from vanishing entries and forbidden subset sums."""
    if kind == "acute":
        while True:
            a = rng.dirichlet(np.ones(d + 1))
            if a.min() >= 0.2 / (d + 1):
                return a
    u = rng.uniform(0.05, 1.0, size=d)
    a = np.concatenate([-u, [1.0 + u.sum()]])
    return rng.permutation(a)


def ortho_vertices(a: np.ndarray, sigma0: float) -> np.ndarray:
    """Vertices about the orthocenter (origin) whose Gram matrix is
    sigma0 * (J + diag(-1/a)), J the all-ones matrix."""
    gram = sigma0 * (np.ones((a.size, a.size)) + np.diag(-1.0 / a))
    vals, vecs = np.linalg.eigh(gram)
    keep = vals.argsort()[1:]  # drop the one zero eigenvalue
    return vecs[:, keep] * np.sqrt(vals[keep])


def random_similarity(pts: np.ndarray, rng: np.random.Generator):
    """Apply a seeded rotation, scale and translation; return the new
    points and the scale factor."""
    d = pts.shape[1]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    scale = float(rng.uniform(0.5, 2.0))
    shift = rng.normal(size=d)
    return scale * pts @ q + shift, scale


def gaussian_simplex(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian vertices, redrawn until the simplex is well conditioned."""
    while True:
        v = rng.normal(size=(d + 1, d))
        e = v[:-1] - v[-1]
        vals = np.linalg.eigvalsh(e @ e.T)
        if vals[0] >= 1e-3 * vals[-1]:
            return v


# ---------------------------------------------------------------------------
# oracle helpers


def squared_distances(v: np.ndarray) -> np.ndarray:
    diff = v[:, None, :] - v[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def own_circumcenter(v: np.ndarray) -> np.ndarray:
    a = 2.0 * (v[:-1] - v[-1])
    b = (v[:-1] ** 2).sum(axis=1) - v[-1] @ v[-1]
    return np.linalg.solve(a, b)


def own_volume(v: np.ndarray) -> float:
    e = v[:-1] - v[-1]
    return float(np.sqrt(max(np.linalg.det(e @ e.T), 0.0))) / factorial(v.shape[1])


def _close(got, want, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(got, float) - np.asarray(want, float)) <= tol))


# ---------------------------------------------------------------------------
# workloads


class Analyze:
    """`orthoplex analyze --json` through cli.main, one document on stdin."""

    def run(self, inp):
        from orthoplex import cli

        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(inp[0])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["analyze", "--json"])
        finally:
            sys.stdin = stdin
        return rc, out.getvalue()

    @staticmethod
    def facets(inp) -> int:
        return inp[1]["d"] + 1

    @staticmethod
    def samples(out) -> int:
        return 0

    @staticmethod
    def label(key) -> str:
        return f"d={key[0]}" if isinstance(key, tuple) else f"d={key}"

    @staticmethod
    def _parse(out):
        rc, text = out
        if rc != 0:
            return None, f"exit code {rc}"
        try:
            return json.loads(text), None
        except json.JSONDecodeError as exc:
            return None, f"output is not JSON: {exc}"


class AnalyzeOrthocentric(Analyze):
    """Orthocentric documents with a seeded rotation, translation and scale,
    half acute and half obtuse."""

    name = "analyze_orthocentric"
    classes = [(d, kind) for d in (4, 8, 12) for kind in ("acute", "obtuse")]
    trace_rounds = 3

    def make_input(self, key, seed, rnd):
        d, kind = key
        rng = _rng(seed, 1, rnd, d, int(kind == "obtuse"))
        a = ortho_bary(d, kind, rng)
        sigma0 = -1.0 if kind == "acute" else 1.0
        v, scale = random_similarity(ortho_vertices(a, sigma0), rng)
        truth = {"d": d, "kind": kind, "a": a, "sigma": sigma0 * scale**2}
        return json.dumps({"dim": d, "vertices": v.tolist()}), truth, v

    def check(self, inp, out):
        doc, err = self._parse(out)
        if err:
            return err
        t = inp[1]
        d, a, sigma = t["d"], t["a"], t["sigma"]
        if doc.get("orthocentric") is not True:
            return "not reported orthocentric"
        p = doc.get("ortho_params")
        if p is None:
            return "ortho_params missing"
        if not _close(p["bary"], a, 1e-8):
            return "orthocenter barycentrics differ from the generating ones"
        if p["class"] != t["kind"]:
            return f"class {p['class']!r} != {t['kind']!r}"
        euler = doc.get("euler") or {}
        ratio = euler.get("ratio")
        if ratio is None or abs(ratio - (d - 1) / 2) > 1e-6 * (d - 1) / 2:
            return f"Euler ratio {ratio} != (d-1)/2"
        # 4 R_F^2 / sigma = (k-1)^2 / s - sum 1/a_i over the facet, k = d-1
        inv = 1.0 / a
        s = 1.0 - a
        want = np.sqrt(sigma / 4.0 * ((d - 2) ** 2 / s - (inv.sum() - inv)))
        if not _close(doc["facet_circumradii"], want, 1e-8 * want.max()):
            return "facet circumradii differ from the closed form"
        spheres = doc.get("feuerbach") or []
        if [sp["k"] for sp in spheres] != list(range(d)):
            return "mid-face spheres missing"
        for sp in spheres:
            if not sp["max_residual"] <= 10 * REL * sp["radius"]:
                return f"sphere k={sp['k']} residual {sp['max_residual']:.3e}"
        return None


class AnalyzeGeneral(Analyze):
    """Gaussian simplices, which are not orthocentric."""

    name = "analyze_general"
    classes = [4, 8, 12]
    trace_rounds = 30

    def make_input(self, key, seed, rnd):
        d = key
        v = gaussian_simplex(d, _rng(seed, 2, rnd, d))
        return json.dumps({"dim": d, "vertices": v.tolist()}), {"d": d}, v

    def check(self, inp, out):
        doc, err = self._parse(out)
        if err:
            return err
        v = inp[2]
        if doc.get("orthocentric") is not False:
            return "reported orthocentric"
        vol = own_volume(v)
        if abs(doc["volume"] - vol) > 1e-9 * vol:
            return f"volume {doc['volume']!r} != {vol!r}"
        dist = np.linalg.norm(v - np.asarray(doc["centers"]["circumcenter"]), axis=1)
        diam = float(np.sqrt(squared_distances(v).max()))
        if dist.max() - dist.min() > 1e-8 * diam:
            return "circumcenter is not equidistant from the vertices"
        return None


class Roundtrip:
    """Library calls: sample, build, recover, closed-form data."""

    name = "roundtrip"
    classes = [(d, kind) for d in (8, 12, 16) for kind in ("acute", "obtuse")]
    trace_rounds = 10

    def make_input(self, key, seed, rnd):
        d, kind = key
        return d, kind, derive_seed(seed, 3, rnd, d, int(kind == "obtuse"))

    def run(self, inp):
        from orthoplex import orthocentric as oc

        p = oc.sample_params(*inp)
        s = oc.construct(p.bary)
        q = oc.params_of(s)
        return p, s, q, oc.edge_and_altitude_data(q, s), oc.circum_data(q, s)

    def check(self, inp, out):
        p, s, q, _, circ = out
        if not _close(q.bary, p.bary, 1e-8):
            return "recovered barycentrics differ from the sampled ones"
        if not (p.kind == q.kind == inp[1]):
            return f"kind {q.kind!r} != {inp[1]!r}"
        v = np.asarray(s.vertices)
        r2 = float(((v - own_circumcenter(v)) ** 2).sum(axis=1).mean())
        if abs(circ.r_squared - r2) > 1e-8 * r2:
            return f"circum_data r^2 {circ.r_squared!r} != measured {r2!r}"
        return None

    @staticmethod
    def facets(inp) -> int:
        return inp[0] + 1

    @staticmethod
    def samples(out) -> int:
        return 0

    @staticmethod
    def label(key) -> str:
        return f"d={key[0]}"


class VerifySuites:
    """One verify suite per op, each with its own derived seed."""

    name = "verify_suites"
    classes = ["center_equivalences", "regularity", "euler_feuerbach", "rectangular"]
    trace_rounds = 3

    def make_input(self, key, seed, rnd):
        return key, derive_seed(seed, 4, rnd, self.classes.index(key))

    def run(self, inp):
        from orthoplex import verify as vf

        suite, seed = inp
        return vf.run_all(vf.SuiteConfig(suites=(suite,), samples=60, seed=seed, d_min=2, d_max=6))

    def check(self, inp, out):
        if out.passed is not True:
            return "report did not pass"
        if [r.suite for r in out.suites] != [inp[0]]:
            return "wrong suite ran"
        for r in out.suites:
            if not r.max_residual <= 1.0:
                return f"{r.suite} max_residual {r.max_residual!r} > 1"
        return None

    @staticmethod
    def facets(inp) -> int:
        return 0

    @staticmethod
    def samples(out) -> int:
        return sum(r.samples for r in out.suites)

    @staticmethod
    def label(key) -> str:
        return key


WORKLOADS = {w.name: w for w in (AnalyzeOrthocentric(), AnalyzeGeneral(), Roundtrip(), VerifySuites())}


def schedule(workload, seed: int, rnd: int) -> list:
    """Seeded order of the classes in one round."""
    order = _rng(seed, 0, rnd).permutation(len(workload.classes))
    return [workload.classes[i] for i in order]
