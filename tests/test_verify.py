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
        vf._check_separation(rec, families.regular(3, 1.0), DEFAULT_POLICY)
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
        batched.check_pairs("pairs", np.array(residuals), 1.0, s, a, b)
        assert batched.max_ratio == looped.max_ratio
        # repr, so a NaN residual compares equal to itself
        assert repr(batched.counterexample) == repr(looped.counterexample)

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
            vf._check_euler_feuerbach(rec, s, DEFAULT_POLICY)
            assert rec.counterexample is None and 0.0 < rec.max_ratio <= 1.0

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_rect_sample_builds_one_simplex(self, monkeypatch, d):
        """Each rectangular sample validates one simplex: the lift round trip
        reads the legs without building the lifted simplex."""
        calls = []
        real = sx.from_vertices
        monkeypatch.setattr(sx, "from_vertices", lambda *a, **k: calls.append(a) or real(*a, **k))
        legs = tuple(np.linspace(0.6, 1.7, d))
        rec = vf._Recorder("rectangular")
        vf._check_rectangular(rec, families.RectSpec(d, legs), DEFAULT_POLICY)
        assert rec.counterexample is None
        assert len(calls) == 1

    def test_non_orthocentric_euler_fixture_is_a_numeric_error(self):
        rng = np.random.default_rng(6)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        with pytest.raises(NumericError, match="not orthocentric"):
            vf._check_euler_feuerbach(vf._Recorder("euler_feuerbach"), s, DEFAULT_POLICY)


class TestMutationSelfTest:
    def test_swapped_incenter_weights_caught(self, monkeypatch):
        """A deliberately wrong incenter (vertex-volume weights instead of
        facet-volume weights) must trip the equivalence suite and leave a
        counterexample that reproduces its residual on re-analysis."""

        def faulty_incenter(s, policy=None):
            w = sx.facet_volumes(s)
            w = w[::-1]  # swapped weights: wrong center except under symmetry
            total = float(w.sum())
            center = (w[:, None] * s.vertices).sum(axis=0) / total
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
            w = sx.facet_volumes(s)[::-1]
            total = float(w.sum())
            return (w[:, None] * s.vertices).sum(axis=0) / total, 1.0

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
        original = centers.feuerbach_spheres

        def shifted(simplex, policy):
            return [
                centers.FeuerbachSphere(sp.k, sp.center + 1e-6, sp.radius, 0.0)
                for sp in original(simplex, policy)
            ]

        monkeypatch.setattr(centers, "feuerbach_spheres", shifted)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, s, DEFAULT_POLICY)
        assert rec.counterexample["check"] == "feuerbach k=0 equidistance"


class TestReciprocalLambdaSum:
    """The sum of 1/lambda is measured against the sum of |1/lambda|, so the
    check is scale-free."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_valid_simplex_passes_at_every_scale(self, scale):
        s = op.construct(op.sample_params(6, "acute", 0).bary, scale)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, s, DEFAULT_POLICY)
        assert rec.counterexample is None and rec.max_ratio <= 1.0

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_perturbed_lam_h_fails_at_every_scale(self, monkeypatch, scale):
        original = oc.lambda_params

        def perturbed(p):
            lam = original(p)
            return oc.LambdaParams(lam_h=lam.lam_h * (1 + 1e-6), lam=lam.lam)

        monkeypatch.setattr(oc, "lambda_params", perturbed)
        s = op.construct(op.sample_params(6, "acute", 0).bary, scale)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, s, DEFAULT_POLICY)
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
