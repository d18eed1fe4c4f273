import json
from pathlib import Path

import numpy as np
import pytest

import orthoplex as op
from orthoplex import InputError, NumericError, SuiteConfig, run_all
from orthoplex import DEFAULT_POLICY, centers, cli, families
from orthoplex import orthocentric as oc
from orthoplex import simplex as sx
from orthoplex import verify as vf


SMALL = dict(samples=10, seed=42, d_min=2, d_max=4)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SuiteConfig(samples=0)
        with pytest.raises(InputError):
            SuiteConfig(d_min=1)
        with pytest.raises(InputError):
            SuiteConfig(d_min=5, d_max=3)
        with pytest.raises(InputError):
            SuiteConfig(d_max=11)
        with pytest.raises(InputError, match="seed must be non-negative"):
            SuiteConfig(seed=-1)
        for field in ("samples", "seed", "d_min", "d_max"):
            for bad in (True, 7.5, 4.0, "4", None):
                with pytest.raises(InputError, match=field):
                    SuiteConfig(**{field: bad})
        with pytest.raises(InputError):
            SuiteConfig(suites=())
        cfg = SuiteConfig(samples=np.int64(5), seed=np.uint32(1), d_min=np.int8(2), d_max=3)
        assert cfg.samples == 5 and cfg.d_min == 2

    def test_unknown_suite(self):
        with pytest.raises(InputError):
            SuiteConfig(suites=("not_a_suite",))

    def test_aliases(self):
        cfg = SuiteConfig(suites=("euler", "centers", "rect"), **SMALL)
        assert cfg.suites == ("euler_feuerbach", "center_equivalences", "rectangular")


class TestSuites:
    def test_all_pass_on_small_config(self):
        report = run_all(SuiteConfig(**SMALL))
        assert report.passed
        assert {r.suite for r in report.suites} == set(vf.SUITE_NAMES)
        for r in report.suites:
            assert r.passed and r.counterexample is None
            assert r.samples >= 1
            assert r.max_residual <= 1.0

    def test_determinism(self):
        r1 = run_all(SuiteConfig(**SMALL)).to_json_dict()
        r2 = run_all(SuiteConfig(**SMALL)).to_json_dict()
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_changes_report(self):
        r1 = run_all(SuiteConfig(suites=("regularity",), samples=10, seed=1))
        r2 = run_all(SuiteConfig(suites=("regularity",), samples=10, seed=2))
        assert r1.suites[0].max_residual != r2.suites[0].max_residual

    def test_single_suite_selection(self):
        report = run_all(SuiteConfig(suites=("euler",), samples=10, seed=42,
                                     d_min=2, d_max=4))
        assert [r.suite for r in report.suites] == ["euler_feuerbach"]

    def test_rectangular_covers_the_whole_range(self):
        result = vf.suite_rectangular(SuiteConfig(suites=("rect",), samples=4, seed=0,
                                                  d_min=9, d_max=10))
        assert result.passed and result.samples >= 1

    def test_admissible_equiradial_fixture_that_fails_to_build_fails(self, monkeypatch):
        real = families.equiradial_general
        built = []

        def failing(d, m, branch, policy=DEFAULT_POLICY):
            built.append((d, m, branch))
            if d == 9:
                raise op.ParametrizationError("injected fault")
            return real(d, m, branch, policy)

        monkeypatch.setattr(families, "equiradial_general", failing)
        result = vf.suite_center_equivalences(
            SuiteConfig(suites=("centers",), samples=2, seed=0, d_min=2, d_max=10))
        # only the admissible pairs (9, 2) and (10, 2) are attempted
        assert built == [(9, 2, 1), (9, 2, 2), (10, 2, 1), (10, 2, 2)]
        assert not result.passed
        ce = result.counterexample
        assert ce["check"] == "admissible equiradial fixture builds"
        assert ce["residuals"] == {"d": 9, "m": 2, "branch": 1,
                                   "error": "ParametrizationError: injected fault"}

    def test_timings_normalized_by_default(self):
        report = run_all(SuiteConfig(suites=("rectangular",), samples=4, seed=0))
        doc = report.to_json_dict()
        assert all(r["elapsed_ms"] == 0 for r in doc["suites"])
        doc_t = report.to_json_dict(timings=True)
        assert all(isinstance(r["elapsed_ms"], int) for r in doc_t["suites"])


class TestRecorder:
    def test_exact_coincidence_is_a_counterexample(self):
        rec = vf._Recorder("regularity")
        vf._check_separation(rec, sx._fill([families.regular(3, 1.0)], ()), DEFAULT_POLICY)
        result = rec.result()
        assert not result.passed
        assert result.counterexample["check"].startswith("separated: ")
        assert result.max_residual > 1.0

    def test_zero_over_zero_ratio(self):
        rec = vf._Recorder("x")
        rec.check("tie", 0.0, 0.0)
        assert rec.result().passed and rec.max_ratio == 0.0

    @pytest.mark.parametrize(
        "residual, allowed", [(float("nan"), 1.0), (1.0, float("nan")), (float("nan"), 0.0)]
    )
    def test_nan_is_a_violation(self, residual, allowed):
        rec = vf._Recorder("x")
        rec.check("x", residual, allowed)
        result = rec.result()
        assert not result.passed and result.max_residual == float("inf")
        assert result.counterexample["check"] == "x"

    @pytest.mark.parametrize(
        "residuals",
        [[0.1, 0.9, 0.5], [0.1, 2.0, 0.3, 5.0, 1.5], [0.1, float("nan"), 2.0]],
    )
    def test_check_pairs_equals_check_in_turn(self, residuals):
        s = op.regular(3, 1.0)
        a, b = np.arange(len(residuals)), np.arange(len(residuals)) + 10
        looped, batched = vf._Recorder("x"), vf._Recorder("x")
        for k, res in enumerate(residuals):
            looped.check("pairs", res, 1.0, s, pair=(int(a[k]), int(b[k])))
        batched.check("pairs", np.array(residuals), 1.0, s, pair=np.stack((a, b), axis=-1))
        assert batched.max_ratio == looped.max_ratio
        # repr, so a NaN residual compares equal to itself
        assert repr(batched.counterexample) == repr(looped.counterexample)

    @pytest.mark.parametrize("faults", [
        {},
        {("first", 0): 3.0},
        {("first", 2): 3.0},
        {("first", 4): 3.0},
        {("first", 3): 3.0, ("second", 1, 2): 5.0},  # a later check of an earlier sample
        {("first", 1): 9.0, ("second", 4, 0): 2.0},  # sample 1 is outside the premise
        {("second", 2, 1): float("nan"), ("first", 3): 2.0},
        {("zero", 3): 0.5},  # 0 / 0 passes at sample 1, 0.5 / 0 fails at 3
        {("second", 0, 2): 4.0, ("second", 0, 1): 1.5, ("zero", 0): 0.5},
    ])
    def test_block_equals_check_per_sample(self, faults):
        """Checks over a stacked block record the largest ratio and the
        counterexample of the same checks made sample by sample."""
        rng = np.random.default_rng(8)
        block = [op.from_vertices(3, rng.normal(size=(4, 3))) for _ in range(5)]
        s = sx._fill(block, ())
        values = {"first": rng.uniform(0.0, 0.9, 5), "second": rng.uniform(0.0, 0.9, (5, 3)),
                  "zero": np.zeros(5)}
        for (name, *at), value in faults.items():
            values[name][tuple(at)] = value
        first, second, zero = values["first"], values["second"], values["zero"]
        zero_allowed = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        premise = np.arange(5) != 1
        a, b = np.arange(3), np.arange(3) + 10
        blocked, looped = vf._Recorder("x"), vf._Recorder("x")
        blocked.check("first", first, 1.0, s, premise=premise, value=first, k=7)
        blocked.check("second", second, np.full(5, 1.0), s,
                      pair=np.broadcast_to(np.stack((a, b), axis=-1), (5, 3, 2)))
        blocked.check("zero", zero, zero_allowed, s)
        for j, t in enumerate(block):
            if premise[j]:
                looped.check("first", first[j], 1.0, t, value=first[j], k=7)
            for p in range(3):
                looped.check("second", second[j, p], 1.0, t, pair=(int(a[p]), int(b[p])))
            looped.check("zero", zero[j], zero_allowed[j], t)
        assert blocked.max_ratio == looped.max_ratio
        assert repr(blocked.counterexample) == repr(looped.counterexample)
        assert (blocked.counterexample is None) == (not faults)

    @pytest.mark.parametrize("field, check", [("incenter", "rect separated"),
                                              ("circumcenter", "rect circumcenter barycentrics")])
    def test_rect_center_faults_are_counterexamples(self, monkeypatch, field, check):
        if field == "incenter":  # the incenter moved onto the centroid
            real = centers._center_distances
            at = centers._CENTER_PAIRS.index(("centroid", "incenter"))
            monkeypatch.setattr(centers, "_center_distances",
                                lambda s: np.where(np.arange(6) == at, 0.0, real(s)))
        else:  # the circumcenter's barycentrics moved off; params_of's calls untouched
            real = sx.barycentric

            def faulty(s, point):
                moved = np.array_equal(point, centers.circumcenter(s)[0])
                return real(s, point) + (0.1 if moved else 0.0)

            monkeypatch.setattr(sx, "barycentric", faulty)
        result = vf.suite_rectangular(SuiteConfig(suites=("rect",), samples=4, seed=0, d_max=3))
        assert not result.passed
        assert result.counterexample["check"].startswith(check)
        if field == "incenter":
            assert result.counterexample["residuals"]["pair"] == "centroid-incenter"

    def test_euler_check_builds_no_center_report(self, monkeypatch):
        """The Euler check reads the orthocenter and circumcenter it needs, not
        a whole center report or the six center distances."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the Euler check must not call this")

        monkeypatch.setattr(centers, "center_report", forbidden)
        monkeypatch.setattr(centers, "_center_distances", forbidden)
        for kind in ("acute", "obtuse"):
            s = op.construct(op.sample_params(5, kind, 1).bary, 1.0)
            rec = vf._Recorder("euler_feuerbach")
            vf._check_euler_feuerbach(rec, [s], DEFAULT_POLICY)
            assert rec.counterexample is None and 0.0 < rec.max_ratio <= 1.0

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_rect_sample_builds_one_simplex(self, monkeypatch, d):
        """Each rectangular sample builds one simplex in the check, its
        hypotenuse facet (none for d = 2): the block's facets come from one
        stacked QR and one stacked degeneracy test, with no ``from_vertices``,
        ``face`` or ``params_of`` call, the closed forms come from the legs
        array with no ``RectSpec`` or ``rect_metrics`` call, and the lift
        reads the legs of the whole stack without building the lifted
        simplices."""
        legs = np.stack([np.linspace(0.6, 1.7, d) * (1 + 0.1 * k) for k in range(4)])
        block = sx._from_vertex_rows(d, families._rect_pose(legs), DEFAULT_POLICY)
        shapes = {"qr": [], "eigvalsh": []}
        for name, seen in shapes.items():
            def recording(a, *args, _real=getattr(np.linalg, name), _seen=seen, **kwargs):
                _seen.append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)

        def forbidden(*args, **kwargs):
            raise AssertionError("the rectangular check must not call this")

        for module, name in ((sx, "from_vertices"), (sx, "face"), (oc, "params_of"),
                             (families, "RectSpec"), (families, "rect_metrics")):
            monkeypatch.setattr(module, name, forbidden)
        rec = vf._Recorder("rectangular")
        vf._check_rectangular(rec, legs, block, DEFAULT_POLICY)
        assert rec.counterexample is None
        assert shapes["qr"] == ([] if d == 2 else [(4, d, d - 1)])
        assert shapes["eigvalsh"] == ([] if d == 2 else [(4, d - 1, d - 1)])

    def test_non_orthocentric_euler_fixture_is_a_numeric_error(self):
        rng = np.random.default_rng(6)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        with pytest.raises(NumericError, match="not orthocentric"):
            vf._check_euler_feuerbach(vf._Recorder("euler_feuerbach"), [s], DEFAULT_POLICY)


class TestBlockFill:
    def test_frame_and_spheres_built_once_per_block(self, monkeypatch):
        """The Euler suite fills each d's fixtures as one stack: the edge
        frame and the mid-face spheres are built once per block, and every
        sample reads its slice."""
        builds = {"_frame": [], "_mid_face_spheres": []}
        for module, name in ((sx, "_frame"), (centers, "_mid_face_spheres")):
            def building(s, _build=getattr(module, name).__wrapped__, _name=name):
                builds[_name].append(s)
                return _build(s)

            monkeypatch.setattr(module, name, sx._per_simplex(building))
        config = SuiteConfig(suites=("euler",), samples=12, seed=42, d_min=2, d_max=5)
        result = vf.suite_euler_feuerbach(config)
        assert result.passed and result.samples >= 4 * 4
        for stacks in builds.values():
            assert [s.dim for s in stacks] == [2, 3, 4, 5]
            assert sum(len(s.vertices) for s in stacks) == result.samples

    def test_each_regular_simplex_is_built_once(self, monkeypatch):
        """All four suites at d 2..6 ask for the regular simplex many times
        (the family fixtures, the perturbation bases, the kite bases) and
        build each distinct one once; no ``RectSpec`` or one-row
        ``rect_metrics`` is made."""

        def forbidden(*args, **kwargs):
            raise AssertionError("verify must not call this")

        for name in ("RectSpec", "rect_metrics"):
            monkeypatch.setattr(families, name, forbidden)
        asked, real = [], families.regular
        monkeypatch.setattr(families, "regular", lambda *a: asked.append(a) or real(*a))
        families._regular.cache_clear()
        assert run_all(SuiteConfig(d_min=2, d_max=6)).passed
        built = families._regular.cache_info()
        assert sorted({a[:2] for a in asked}) == [(d, 1.0) for d in range(2, 7)]
        assert built.misses == built.currsize == 5 and len(asked) > 5

    @pytest.mark.parametrize("suite, check", [
        ("center_equivalences", "_check_equivalences"),
        ("regularity", "_check_separation"),
        ("euler_feuerbach", "_check_euler_feuerbach"),
        ("rectangular", "_check_rectangular"),
    ])
    def test_each_check_runs_once_per_dimension(self, monkeypatch, suite, check):
        """A suite hands each d's block to its check in one call: a list of
        samples, or for the separation check their stack."""
        dims = []
        real = getattr(vf, check)

        def counting(rec, *args):
            block = args[-2]
            dims.append(block.dim if isinstance(block, sx.Simplex) else block[0].dim)
            return real(rec, *args)

        monkeypatch.setattr(vf, check, counting)
        result = vf.run_all(SuiteConfig(suites=(suite,), samples=12, seed=5, d_min=2, d_max=5))
        assert result.passed and dims == [2, 3, 4, 5]


class TestMutationSelfTest:
    def test_swapped_incenter_weights_caught(self, monkeypatch):
        """A deliberately wrong incenter (vertex-volume weights instead of
        facet-volume weights) must trip the equivalence suite and leave a
        counterexample that reproduces its residual on re-analysis."""

        def faulty_incenter(s, policy=None):
            w = sx.facet_volumes(s)
            w = w[..., ::-1]  # swapped weights: wrong center except under symmetry
            total = w.sum(axis=-1)
            center = (w[..., None] * s.vertices).sum(axis=-2) / total[..., None]
            return center, s.dim * sx.volume(s) / total

        monkeypatch.setattr(centers, "incenter", faulty_incenter)
        report = run_all(SuiteConfig(suites=("center_equivalences",), samples=5,
                                     seed=3, d_min=3, d_max=4))
        result = report.suites[0]
        assert not result.passed
        payload = result.counterexample
        assert payload is not None and "simplex" in payload

        # round-trip: rebuild the simplex and re-derive the failing scalar
        doc = payload["simplex"]
        s = op.from_vertices(doc["dim"], doc["vertices"])
        scalars = payload["residuals"]
        i, _ = centers.incenter(s)
        g = centers.centroid(s)
        d_ig = float(np.linalg.norm(i - g)) / sx.diameter(s)
        assert d_ig == pytest.approx(scalars["d_ig"], rel=1e-12)

    def test_json_round_trip_of_counterexample(self, monkeypatch):
        def faulty_incenter(s, policy=None):
            w = sx.facet_volumes(s)[..., ::-1]
            total = w.sum(axis=-1)[..., None]
            return (w[..., None] * s.vertices).sum(axis=-2) / total, np.ones(total.shape[:-1])

        monkeypatch.setattr(centers, "incenter", faulty_incenter)
        report = run_all(SuiteConfig(suites=("center_equivalences",), samples=5,
                                     seed=3, d_min=3, d_max=3))
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        revived = json.loads(blob)
        payload = revived["suites"][0]["counterexample"]
        assert payload["residual"] > payload["allowed"]
        assert len(payload["simplex"]["vertices"]) == payload["simplex"]["dim"] + 1


class TestFaceCentroidOracle:
    def test_equidistance_check_measures_the_centroids(self, monkeypatch):
        """A sphere whose closed form says nothing is wrong must still fail
        the equidistance check when its center is off."""
        s = op.construct(op.sample_params(5, "acute", 5).bary, 1.0)

        def shifted(original):
            def spheres(simplex):
                center, radius, _ = original(simplex)
                return center + 1e-6, radius, np.zeros_like(radius)

            return spheres

        for name in ("_mid_face_spheres", "_facet_sphere"):
            monkeypatch.setattr(centers, name, shifted(getattr(centers, name)))
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, [s], DEFAULT_POLICY)
        assert rec.counterexample["check"] == "feuerbach k=0 equidistance"


class TestReciprocalLambdaSum:
    """The sum of 1/lambda is measured against the sum of |1/lambda|, so the
    check is scale-free."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_valid_simplex_passes_at_every_scale(self, scale):
        s = op.construct(op.sample_params(6, "acute", 0).bary, scale)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, [s], DEFAULT_POLICY)
        assert rec.counterexample is None and rec.max_ratio <= 1.0

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_perturbed_lam_h_fails_at_every_scale(self, monkeypatch, scale):
        """lam_H moved off by 1e-6 in the closed form that ``lambda_params``
        and the check's stacked block share."""
        original = oc._lambda_rows

        def perturbed(sigma, bary):
            lam = original(sigma, bary)
            lam[..., 0] *= 1 + 1e-6
            return lam

        monkeypatch.setattr(oc, "_lambda_rows", perturbed)
        lam_h = oc.lambda_params(op.params_of(op.construct([0.5, 0.25, 0.25]))).lam_h
        assert lam_h == pytest.approx(-1 - 1e-6, rel=1e-12)
        s = op.construct(op.sample_params(6, "acute", 0).bary, scale)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, [s], DEFAULT_POLICY)
        assert rec.counterexample["check"] == "reciprocal lambda sum"


GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"


class TestGoldenReports:
    """``orthoplex verify --seed S --dim-max 10 --samples 60 --json`` output,
    pinned byte for byte.  A change meant to alter these reports rewrites
    the file from that command's output and says so."""

    @pytest.mark.parametrize("seed", ["42", "7", "1234"])
    def test_seeded_report_bytes(self, capsys, monkeypatch, seed):
        monkeypatch.delenv("ORTHOPLEX_TOL", raising=False)
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))[seed]
        argv = ["verify", "--seed", seed, "--dim-max", "10", "--samples", "60", "--json"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want + "\n"


class StreamRng:
    """A stand-in for a numpy Generator whose ``normal`` draws come from a
    fixed stream, in C order, whatever the shape asked for."""

    def __init__(self, stream):
        self.stream, self.used = stream, 0

    def normal(self, loc, scale, size):
        count = int(np.prod(size))
        out = self.stream[self.used:self.used + count].reshape(size)
        self.used += count
        return loc + scale * out


class TestStreamOrder:
    """Blocks read the random streams in the order the one-at-a-time loops
    they replace did."""

    @pytest.mark.parametrize("j", [0, 3, 7, 9])
    def test_degenerate_draw_is_replaced_in_stream_order(self, j):
        d, k = 3, 10
        stream = np.random.default_rng(j).normal(size=(k + 3) * (d + 1) * d)
        draws = stream.reshape(-1, d + 1, d)
        draws[j, 1] = draws[j, 0]  # draw j is degenerate
        draws[k, 3] = draws[k, 2]  # and so is the first draw that replaces it

        reference, rng = [], StreamRng(stream)
        while len(reference) < k:  # the loop the block replaced
            try:
                reference.append(op.from_vertices(d, rng.normal(0.0, 1.0, size=(d + 1, d))))
            except op.DegenerateSimplexError:
                continue
        block_rng = StreamRng(stream)
        block = vf._random_simplices(d, k, block_rng, DEFAULT_POLICY)
        assert block_rng.used == rng.used == (k + 2) * (d + 1) * d
        assert [s.vertices.tolist() for s in block] == [s.vertices.tolist() for s in reference]

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_near_regular_attempt_is_replaced_in_attempt_order(self, monkeypatch, j):
        """Acute rows j and j + 1 of the stream are regular tuples: the first
        is in the first round, the second, for j = 3, in the round that
        replaces it.  Each round asks the block's one generator for the
        missing acute rows, then the missing obtuse rows."""
        d, per_kind = 4, 4
        tables = {kind: np.array([op.sample_params(d, kind, a).bary for a in range(3 * per_kind)])
                  for kind in ("acute", "obtuse")}
        tables["acute"][[j, j + 1]] = 1.0 / (d + 1)
        served = dict.fromkeys(tables, 0)
        calls = []
        rng = np.random.default_rng(0)

        def stub(dim, kind, k, generator):
            assert (dim, generator) == (d, rng)
            calls.append((kind, k))
            served[kind] += k
            return tables[kind][served[kind] - k:served[kind]].copy()

        monkeypatch.setattr(oc, "_sample_rows", stub)
        block = vf._separated_samples(d, per_kind, rng, DEFAULT_POLICY)
        kept = [("acute", a) for a in range(per_kind + 2) if a not in (j, j + 1)] + [
            ("obtuse", a) for a in range(per_kind)]
        want = [op.construct(tables[kind][a], 1.0).vertices.tolist() for kind, a in kept]
        assert [s.vertices.tolist() for s in block] == want
        rounds = [[("acute", 2), ("obtuse", 0)]] if j < 3 else [[("acute", 1), ("obtuse", 0)]] * 2
        assert calls == [("acute", per_kind), ("obtuse", per_kind)] + sum(rounds, [])

    def test_suite_draws_each_block_from_one_generator(self, monkeypatch):
        """Every shape tuple of a block comes from the one generator of
        ``_sub_seed(config, suite, d)``."""
        config = SuiteConfig(suites=("regularity", "euler_feuerbach", "rectangular"),
                             samples=12, seed=5, d_min=3, d_max=4)
        seen = []
        real = oc._sample_rows

        def stub(d, kind, k, rng):
            seen.append((d, rng.bit_generator.seed_seq.entropy))
            return real(d, kind, k, rng)

        monkeypatch.setattr(oc, "_sample_rows", stub)
        assert vf.run_all(config).passed
        entropy = {vf._sub_seed(config, code, d): (code, d) for code in (2, 3, 4) for d in (3, 4)}
        blocks = [(code, d) for code in (2, 3, 4) for d in (3, 4)]
        assert list(dict.fromkeys(entropy[seed] for _, seed in seen)) == blocks
        # the rectangular block draws its one lift-rejection tuple in d - 1
        assert [dim for dim, seed in seen if entropy[seed][0] == 4] == [2, 3]


class TestBlockCounts:
    """Each (suite, d) block is built with one stacked eigensolve and draws
    from one generator: counts, not timings.  Every other eigensolve is a
    family fixture's own ``from_vertices``, and verify calls neither
    ``face``, ``params_of`` nor ``sample_params`` per sample."""

    def counted(self, monkeypatch, suite, samples):
        calls = {"stacked": 0, "single": 0, "from_vertices": 0, "face": 0, "params_of": 0,
                 "construct_rows": 0, "sub_seed": 0, "sample_params": 0}
        real_eig = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            calls["stacked" if np.ndim(a) == 3 else "single"] += 1
            return real_eig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for module, name, key in ((sx, "from_vertices", "from_vertices"), (sx, "face", "face"),
                                  (oc, "params_of", "params_of"),
                                  (oc, "_construct_rows", "construct_rows"),
                                  (vf, "_sub_seed", "sub_seed"),
                                  (oc, "sample_params", "sample_params")):
            def counting(*args, _real=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        result = vf.run_all(SuiteConfig(suites=(suite,), samples=samples, seed=3,
                                        d_min=2, d_max=5)).suites[0]
        assert result.passed
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("suite, blocks", [
        ("center_equivalences", {"stacked": 4}),
        ("regularity", {"stacked": 8, "construct_rows": 4}),
        ("euler_feuerbach", {"stacked": 4, "construct_rows": 4}),
        ("rectangular", {"stacked": 4 + 3}),
    ])
    def test_one_eigensolve_per_block(self, monkeypatch, suite, blocks):
        few = self.counted(monkeypatch, suite, 12)
        many = self.counted(monkeypatch, suite, 40)
        assert few == many  # nothing is built per sample
        # one generator per (suite, d) block, and no tuple drawn from its own seed
        want = {"stacked": 0, "face": 0, "params_of": 0, "construct_rows": 0,
                "sub_seed": 4, "sample_params": 0}
        want.update(blocks)
        assert {k: few[k] for k in want} == want
        # every unstacked eigensolve is a fixture's own from_vertices call
        assert few["single"] == few["from_vertices"]
