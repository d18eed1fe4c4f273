import dataclasses
import inspect
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import orthoplex as op
from orthoplex import InputError, SuiteConfig, run_all
from orthoplex import DEFAULT_POLICY, TolerancePolicy, centers, cli, families
from orthoplex import orthocentric as oc
from orthoplex import simplex as sx
from orthoplex import verify as vf
from conftest import count_inverses


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

    def test_tolerance_must_be_below_the_acute_margin(self, capsys):
        """An acute sample's least coordinate is min(0.01, 2/(d_max+1)^2): at
        a rel that large ``construct``'s margin test would reject the
        samples, so the config names the bound instead."""
        for d_max in (2, 6, 10):
            with pytest.raises(InputError, match=r"rel=0\.01 must be below 0\.01, .*"
                                                 r"min\(0\.01, 2/\(d_max\+1\)\^2\)"):
                SuiteConfig(d_max=d_max, policy=TolerancePolicy(rel=0.01))
        assert cli.main(["verify", "--tol", "0.1"]) == 1
        assert "must be below 0.01" in capsys.readouterr().err
        config = SuiteConfig(policy=TolerancePolicy(rel=0.009), **SMALL)
        assert run_all(config).passed

    def test_tolerance_must_be_at_least_the_round_off_floor(self, capsys):
        """Below rel = 1e-12 the checks fail on round-off, not on geometry
        (at 1e-16 a sampled tuple's barycentric sum already misses 1), so
        the config names the floor instead."""
        for rel in (1e-16, 1e-13, 9.99e-13):
            with pytest.raises(InputError, match=r"rel=.* must be at least 1e-12, below which"):
                SuiteConfig(policy=TolerancePolicy(rel=rel))
        assert cli.main(["verify", "--tol", "1e-16"]) == 1
        assert "must be at least 1e-12" in capsys.readouterr().err
        assert run_all(SuiteConfig(policy=TolerancePolicy(rel=1e-12), **SMALL)).passed

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
        """A fault in the equiradial solution fails the suite naming it, and
        the fixtures that do build join their block as posed rows: the suite
        builds no simplex outside its block stacks."""
        real = families._equiradial_solution
        built = []

        def failing(d, m, branch, policy):
            built.append((d, m, branch))
            if d == 9:
                raise op.ParametrizationError("injected fault")
            return real(d, m, branch, policy)

        monkeypatch.setattr(families, "_equiradial_solution", failing)
        monkeypatch.setattr(sx, "from_vertices", None)  # verify must not call it
        heads = []
        real_rows = sx._from_vertex_rows

        def rows(dim, vertices, policy, drop_from=None):
            heads.append((dim, drop_from))
            return real_rows(dim, vertices, policy, drop_from)

        monkeypatch.setattr(sx, "_from_vertex_rows", rows)
        result = vf.suite_center_equivalences(
            SuiteConfig(suites=("centers",), samples=2, seed=0, d_min=2, d_max=10))
        # only the admissible pairs (9, 2) and (10, 2) are attempted; the two
        # d = 10 fixtures lead that block after the regular, rectangular and kite rows
        assert built == [(9, 2, 1), (9, 2, 2), (10, 2, 1), (10, 2, 2)]
        assert heads == [(2, 2), (3, 2)] + [(d, 3) for d in range(4, 10)] + [(10, 5)]
        assert not result.passed
        ce = result.counterexample
        assert ce["check"] == "admissible equiradial fixture builds"
        assert ce["residuals"] == {"d": 9, "m": 2, "branch": 1,
                                   "error": "ParametrizationError: injected fault"}

    def test_liftable_rejection_tuple_fails_the_suite(self, monkeypatch):
        """An acute tuple in place of the d = 4 block's obtuse rejection tuple
        lifts, so the suite fails naming that simplex."""
        acute = np.array([0.4, 0.3, 0.2, 0.1])
        real = oc._sample_rows

        def stub(d, kind, k, rng):
            rows = real(d, kind, k, rng)  # the stream moves as before
            return np.tile(acute, (k, 1)) if (d, kind) == (3, oc.OBTUSE) else rows

        monkeypatch.setattr(oc, "_sample_rows", stub)
        result = vf.suite_rectangular(SuiteConfig(suites=("rect",), samples=6, seed=0,
                                                  d_min=2, d_max=5))
        assert not result.passed and result.max_residual == 2.0
        ce = result.counterexample
        assert ce["check"] == "lift must reject non-negative obtuseness"
        assert (ce["residual"], ce["allowed"], ce["residuals"]) == (1.0, 0.5, {})
        assert ce["simplex"] == {"dim": 3, "vertices": op.construct(acute).vertices.tolist()}

    def test_timings_normalized_by_default(self):
        report = run_all(SuiteConfig(suites=("rectangular",), samples=4, seed=0))
        doc = report.to_json_dict()
        assert all(r["elapsed_ms"] == 0 for r in doc["suites"])
        doc_t = report.to_json_dict(timings=True)
        assert all(isinstance(r["elapsed_ms"], int) for r in doc_t["suites"])


class TestRecorder:
    def test_exact_coincidence_is_a_counterexample(self):
        rec = vf._Recorder("regularity")
        vf._check_separation(rec, sx._stack([families.regular(3, 1.0)]), DEFAULT_POLICY)
        result = rec.result()
        assert not result.passed
        assert result.counterexample["check"].startswith("separated: ")
        assert result.max_residual > 1.0

    def test_zero_over_zero_ratio(self):
        rec = vf._Recorder("x")
        rec.check("tie", 0.0, 0.0)
        result = rec.result()
        assert result.passed and result.max_residual == 0.0

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
        batched, looped = batched.result(), looped.result()
        assert batched.max_residual == looped.max_residual
        # repr, so a NaN residual compares equal to itself
        assert repr(batched.counterexample) == repr(looped.counterexample)

    @pytest.mark.parametrize("faults", [
        {},
        {("first", 0): 3.0},
        {("first", 2): 3.0},
        {("first", 4): 3.0},
        {("first", 3): 3.0, ("second", 1, 2): 5.0},  # the earlier check, at a later sample
        {("first", 1): 9.0, ("second", 4, 0): 2.0},  # sample 1 is outside the premise
        {("second", 2, 1): float("nan"), ("first", 3): 2.0},
        {("zero", 3): 0.5},  # 0 / 0 passes at sample 1, 0.5 / 0 fails at 3
        {("second", 0, 2): 4.0, ("second", 0, 1): 1.5, ("zero", 0): 0.5},
        # the second stack, settled with the first
        {("third", 2): 3.0},
        {("third", 1): 9.0, ("fourth", 2, 1): 2.0},  # sample 1 is outside the premise
        {("fourth", 3, 1): 2.0, ("third", 3): float("nan")},  # earliest check in code order
        {("fourth", 0, 1): 0.5, ("fourth", 2, 0): float("nan")},  # 0.5 / 0 fails at sample 0
        {("third", 0): 5.0, ("zero", 4): 0.5},  # the first stack's violation is met first
        {("fourth", 1, 0): 3.0, ("first", 1): 9.0},  # the first stack's fault is outside
    ])
    def test_block_equals_check_per_sample(self, monkeypatch, faults):
        """Checks over two stacked blocks, settled in one flat pass, record
        the largest ratio and the counterexample of a settle after every
        check: the same checks made value by value in queue order (check,
        then sample, then value), each settled on its own."""
        rng = np.random.default_rng(8)
        block = [op.from_vertices(3, rng.normal(size=(4, 3))) for _ in range(5)]
        s = sx._stack(block)
        values = {"first": rng.uniform(0.0, 0.9, 5), "second": rng.uniform(0.0, 0.9, (5, 3)),
                  "zero": np.zeros(5)}
        other = [op.from_vertices(2, rng.normal(size=(3, 2))) for _ in range(4)]
        u = sx._stack(other)
        fourth_allowed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        values["third"] = rng.uniform(0.0, 0.9, 4)
        values["fourth"] = np.where(fourth_allowed != 0, rng.uniform(0.0, 0.9, (4, 2)), 0.0)
        for (name, *at), value in faults.items():
            values[name][tuple(at)] = value
        first, second, zero = values["first"], values["second"], values["zero"]
        third, fourth = values["third"], values["fourth"]
        zero_allowed = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        premise = np.arange(5) != 1
        third_premise = np.arange(4) != 1
        a, b = np.arange(3), np.arange(3) + 10
        blocked, looped = vf._Recorder("x"), vf._Recorder("x")
        blocked.check("first", first, 1.0, s, premise=premise, value=first, k=7)
        blocked.check("second", second, np.full(5, 1.0), s,
                      pair=np.broadcast_to(np.stack((a, b), axis=-1), (5, 3, 2)))
        blocked.check("zero", zero, zero_allowed, s)
        blocked.check("third", third, np.full(4, 1.0), u, premise=third_premise, value=third)
        blocked.check("fourth", fourth, fourth_allowed, u, column=np.broadcast_to(np.arange(2),
                                                                                  (4, 2)))
        settles, real = [], vf._ratios
        monkeypatch.setattr(vf, "_ratios", lambda *args: settles.append(1) or real(*args))
        blocked = blocked.result()
        monkeypatch.undo()
        assert len(settles) == 1

        def one(*args, **kwargs):  # a check evaluated on its own
            looped.check(*args, **kwargs)
            looped._settle()

        for j, t in enumerate(block):
            if premise[j]:
                one("first", first[j], 1.0, t, value=first[j], k=7)
        for j, t in enumerate(block):
            for p in range(3):
                one("second", second[j, p], 1.0, t, pair=(int(a[p]), int(b[p])))
        for j, t in enumerate(block):
            one("zero", zero[j], zero_allowed[j], t)
        for j, t in enumerate(other):
            if third_premise[j]:
                one("third", third[j], 1.0, t, value=third[j])
        for j, t in enumerate(other):
            for p in range(2):
                one("fourth", fourth[j, p], fourth_allowed[j, p], t, column=p)
        looped = looped.result()
        assert blocked.max_residual == looped.max_residual
        assert repr(blocked.counterexample) == repr(looped.counterexample)
        assert (blocked.counterexample is None) == (not faults)

    @pytest.mark.parametrize("settle", [False, True])
    def test_an_earlier_check_beats_an_earlier_sample(self, settle):
        """The counterexample is the first violation in queue order: a check
        queued earlier wins at a later sample over a later check at sample
        0, whether or not a settle falls between them; the later settle
        still raises the largest ratio."""
        rng = np.random.default_rng(3)
        s = sx._stack([op.from_vertices(2, rng.normal(size=(3, 2))) for _ in range(4)])
        rec = vf._Recorder("x")
        rec.check("earlier", np.array([0.1, 0.2, 0.3, 2.0]), 1.0, s, sample=np.arange(4))
        if settle:
            rec._settle()
        rec.check("later", np.array([3.0, 0.1, 0.1, 0.1]), 1.0, s, sample=np.arange(4))
        result = rec.result()
        assert result.max_residual == 3.0
        assert result.counterexample == {
            "check": "earlier", "residual": 2.0, "allowed": 1.0, "residuals": {"sample": 3},
            "simplex": {"dim": 2, "vertices": s.vertices[3].tolist()}}

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
            vf._check_euler_feuerbach(rec, sx._stack([s]), DEFAULT_POLICY)
            result = rec.result()
            assert result.counterexample is None and 0.0 < result.max_residual <= 1.0

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_rect_sample_builds_one_simplex(self, monkeypatch, d):
        """The rectangular stack of dimension m holds block m's simplices,
        then block m+1's hypotenuse facets and rejection simplex, from one
        stacked QR and one stacked inverse, the frame the stack is decided
        by, with no eigensolve and no
        ``from_vertices``, ``face`` or ``params_of`` call.  The checks and
        the lifts read those stacks and build nothing: the closed forms come
        from the legs arrays with no ``RectSpec`` or ``rect_metrics`` call,
        and each lift reads the legs of a whole stack without building the
        lifted simplices."""
        config = SuiteConfig(suites=("rect",), samples=8, seed=d, d_min=d, d_max=d + 1)
        shapes = {"qr": [], "inv": count_inverses(monkeypatch)}

        def recording(a, *args, _real=np.linalg.qr, **kwargs):
            shapes["qr"].append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        lifts, real_lift = [], families._lift_rows

        def lift_rows(t, policy):
            legs, stuck = real_lift(t, policy)
            lifts.append((t.dim, legs, stuck))
            return legs, stuck

        monkeypatch.setattr(families, "_lift_rows", lift_rows)

        def forbidden(*args, **kwargs):
            raise AssertionError("the rectangular check must not call this")

        for module, name in ((sx, "from_vertices"), (sx, "face"), (oc, "params_of"),
                             (families, "RectSpec"), (families, "rect_metrics")):
            monkeypatch.setattr(module, name, forbidden)
        result = vf.suite_rectangular(config)
        assert result.passed and result.samples == 4 + 4 + (d >= 3) + 1
        low = [d - 1] if d >= 3 else []  # block d's facets, alone in the stack below it
        assert shapes["qr"] == [(4, m + 1, m) for m in low + [d]]
        assert shapes["inv"] == [(4 + 1, m, m) for m in low] + [(4 + 4 + 1, d, d),
                                                                (4, d + 1, d + 1)]
        assert [m for m, _, _ in lifts] == low + [d]
        for m, legs, stuck in lifts:
            first = 0 if m < d else 4  # the facets follow the stack's own simplices
            up = vf._rect_draw(config, m + 1)[0]
            assert np.allclose(legs[first:first + 4], up, rtol=1e-12)
            assert len(stuck) == first + 4 + 1 and stuck[-1]

    def test_non_orthocentric_euler_fixture_fails_its_block(self):
        """A fixture that is not orthocentric raises before the block queues
        any check, and the guard records the raise as the block's failure."""
        rng = np.random.default_rng(6)
        s = op.from_vertices(4, rng.normal(size=(5, 4)))
        rec = vf._Recorder("euler_feuerbach")
        with rec.guard("block completes", d=4):
            vf._check_euler_feuerbach(rec, sx._stack([s]), DEFAULT_POLICY)
        result = rec.result()
        assert not result.passed and result.max_residual == 2.0
        ce = result.counterexample
        assert (ce["check"], ce["residual"], ce["allowed"]) == ("block completes", 1.0, 0.5)
        assert ce["residuals"]["d"] == 4
        assert ce["residuals"]["error"].startswith(
            "NotOrthocentricError: edge perpendicularity residual")

    @pytest.mark.parametrize("suite", vf.SUITE_NAMES)
    def test_a_raise_fails_its_block_and_the_suite_goes_on(self, monkeypatch, suite):
        """An error raised while one block is built fails that block with the
        error named, and the later blocks still run; the failed block's
        samples are not counted."""
        config = SuiteConfig(suites=(suite,), samples=16, seed=3, d_min=2, d_max=5)
        clean = run_all(config).suites[0]
        real, built = sx._from_vertex_rows, []

        def rows(dim, vertices, policy, drop_from=None):
            built.append(dim)
            if dim == 3:
                raise op.DegenerateSimplexError("injected")
            return real(dim, vertices, policy, drop_from)

        monkeypatch.setattr(sx, "_from_vertex_rows", rows)
        result = run_all(config).suites[0]
        assert built[-1] == 5 and not result.passed and result.max_residual == 2.0
        assert 0 < result.samples < clean.samples
        assert result.counterexample == {
            "check": "block completes", "residual": 1.0, "allowed": 0.5,
            "residuals": {"d": 3, "error": "DegenerateSimplexError: injected"}}


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
        """All four suites at d 2..6 ask for the regular coordinates many
        times (the family fixtures, the perturbation bases, the kite bases)
        and compute each distinct one once.  The equiradial kite of each
        d >= 4 is posed in both suites that use it, as rows of their blocks:
        no simplex is built outside a block, so no ``regular``, ``kite``,
        ``equiradial_general``, ``construct`` or ``from_vertices`` call is
        made, nor any ``RectSpec`` or one-row ``rect_metrics`` call."""

        def forbidden(*args, **kwargs):
            raise AssertionError("verify must not call this")

        for module, name in ((families, "regular"), (families, "kite"),
                             (families, "equiradial_general"), (families, "RectSpec"),
                             (families, "rect_metrics"), (oc, "construct"),
                             (sx, "from_vertices")):
            monkeypatch.setattr(module, name, forbidden)
        asked, real = [], families._regular
        monkeypatch.setattr(families, "_regular", lambda *a: asked.append(a) or real(*a))
        kites, real_kite = [], families._kite_pose
        monkeypatch.setattr(families, "_kite_pose",
                            lambda spec: kites.append(spec.d) or real_kite(spec))
        real.cache_clear()
        assert run_all(SuiteConfig(d_min=2, d_max=6)).passed
        built = real.cache_info()
        assert sorted(set(asked)) == [(d, 1.0) for d in range(2, 7)]
        assert built.misses == built.currsize == 5 and len(asked) > 5
        # center_equivalences, then euler_feuerbach, pose the kite of each d >= 4
        assert kites == [4, 5, 6] * 2

    @pytest.mark.parametrize("suite, check", [
        ("center_equivalences", "_check_equivalences"),
        ("regularity", "_check_separation"),
        ("euler_feuerbach", "_check_euler_feuerbach"),
        ("rectangular", "_check_rectangular"),
    ])
    def test_each_check_runs_once_per_dimension(self, monkeypatch, suite, check):
        """A suite hands each d's block to its check in one call, as one
        stack."""
        dims = []
        real = getattr(vf, check)
        signature = inspect.signature(real)

        def counting(rec, *args, **kwargs):
            block = signature.bind(rec, *args, **kwargs).arguments["s"]
            assert isinstance(block, sx.Simplex) and block.vertices.ndim == 3
            dims.append(block.dim)
            return real(rec, *args, **kwargs)

        monkeypatch.setattr(vf, check, counting)
        result = vf.run_all(SuiteConfig(suites=(suite,), samples=12, seed=5, d_min=2, d_max=5))
        assert result.passed and dims == [2, 3, 4, 5]


class TestSuiteQueue:
    """A suite queues the checks of all its blocks and settles them at its
    end, or earlier once the queue outgrows its budget; the counterexample
    is still the first violation in queue order, and each block's stack is
    freed once its checks are queued."""

    RECT = dict(suites=("rect",), samples=12, seed=4, d_min=3, d_max=5)

    @pytest.mark.parametrize("main, lift, want", [
        ((3, 2), (4, 0), ("legs volume", 3, 2)),  # block 3's closed forms, then block 4's lift
        ((5, 0), (4, 3), ("lift round trip", 4, 3)),  # the lift of the earlier block
        ((4, 2), (4, 1), ("lift round trip", 4, 1)),  # a block's lift, before its closed forms
        ((4, 1), (4, 1), ("lift round trip", 4, 1)),  # the same, at one sample
        ((4, 0), (3, 2), ("lift round trip", 3, 2)),  # block d_min, lifted from stack d_min - 1
    ])
    def test_faults_in_two_dimensions(self, monkeypatch, main, lift, want):
        """A wrong closed-form volume for sample j of block d (``main`` =
        (d, j)) and wrong lifted legs for sample j' of block d' (``lift``):
        block d' is lifted from the stack of dimension d'-1, where block
        d'-1's own simplices come first, and its lift checks are queued after
        block d'-1's closed-form checks.  The report names the first
        violation in that order; a lift failure shows the (d'-1)-dimensional
        hypotenuse facet it was lifted from."""
        config = SuiteConfig(**self.RECT)
        k = vf._per_dim(config)
        real_rows, real_lift = families._rect_rows, families._lift_rows

        def rect_rows(legs):
            m = real_rows(legs)
            if legs.shape[-1] != main[0]:
                return m
            volume = m.volume.copy()
            volume[main[1]] *= 1.5
            return dataclasses.replace(m, volume=volume)

        def lift_rows(t, policy):
            legs, stuck = real_lift(t, policy)
            if t.dim == lift[0] - 1:
                legs = legs.copy()
                legs[(k if t.dim >= config.d_min else 0) + lift[1]] *= 1.5
            return legs, stuck

        monkeypatch.setattr(families, "_rect_rows", rect_rows)
        monkeypatch.setattr(families, "_lift_rows", lift_rows)
        result = vf.suite_rectangular(config)
        check, d, j = want
        ce = result.counterexample
        assert not result.passed and ce["check"] == check
        legs = vf._rect_draw(config, d)[0]
        poses = families._rect_pose(legs)
        if check == "lift round trip":
            facets = sx._face_pose(poses[:, :-1])
            assert ce["simplex"] == {"dim": d - 1, "vertices": facets[j].tolist()}
            assert ce["residuals"]["legs"] == legs[j].tolist()
            assert ce["residuals"]["lifted"] == pytest.approx(1.5 * legs[j], rel=1e-12)
        else:
            assert ce["simplex"] == {"dim": d, "vertices": poses[j].tolist()}

    @pytest.mark.parametrize("suite, check", [
        ("center_equivalences", "_check_equivalences"),
        ("regularity", "_check_separation"),
        ("euler_feuerbach", "_check_euler_feuerbach"),
        ("rectangular", "_check_rectangular"),
    ])
    def test_each_stack_is_freed_after_its_checks(self, monkeypatch, suite, check):
        """The queue keeps a block's vertices, not its stack, so the stack
        and its tables are gone before the next block is checked."""
        refs, real = [], getattr(vf, check)
        signature = inspect.signature(real)

        def keeping(*args, **kwargs):
            assert [r() for r in refs] == [None] * len(refs)
            refs.append(weakref.ref(signature.bind(*args, **kwargs).arguments["s"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(vf, check, keeping)
        config = SuiteConfig(suites=(suite,), samples=12, seed=5, d_min=2, d_max=5)
        assert vf.run_all(config).passed
        assert len(refs) == 4 and [r() for r in refs] == [None] * 4

    def test_queue_budget(self, monkeypatch):
        """A queue over its budget settles at once: with a budget of 10
        values every suite settles many times and reports what one settle
        per suite reports, counterexamples included."""

        def faulty_incenter(s, policy=None):
            w = sx.facet_volumes(s)[..., ::-1]
            total = w.sum(axis=-1)
            return (w[..., None] * s.vertices).sum(axis=-2) / total[..., None], 1.0 / total

        monkeypatch.setattr(centers, "incenter", faulty_incenter)
        config = SuiteConfig(samples=12, seed=6, d_min=2, d_max=5)
        once = run_all(config).to_json_dict()
        settles, real = [], vf._ratios
        monkeypatch.setattr(vf, "_ratios", lambda *args: settles.append(1) or real(*args))
        monkeypatch.setattr(sx, "_SLICE_VALUES", 10)
        often = run_all(config).to_json_dict()
        assert len(settles) > 10 * 4
        assert json.dumps(often) == json.dumps(once)
        assert not once["pass"] and sum(not r["pass"] for r in once["suites"]) >= 2

    def test_slice_budget(self, monkeypatch):
        """With a slice budget of one value the Euler oracle takes one sample
        per slice and reports what one slice per block reports, a faulty
        sphere's counterexample included."""

        def faulty_incenter(s, policy=None):
            w = sx.facet_volumes(s)[..., ::-1]
            total = w.sum(axis=-1)
            return (w[..., None] * s.vertices).sum(axis=-2) / total[..., None], 1.0 / total

        real = centers._mid_face_spheres

        def shifted(s):  # the spheres of the fourth sample of a stack on, moved
            center, radius, residual = real(s)
            return center + 1e-6 * (np.arange(len(center)) >= 3)[:, None, None], radius, residual

        monkeypatch.setattr(centers, "incenter", faulty_incenter)
        monkeypatch.setattr(centers, "_mid_face_spheres", sx._per_simplex(shifted))
        config = SuiteConfig(samples=12, seed=6, d_min=2, d_max=5)
        once = run_all(config).to_json_dict()
        monkeypatch.setattr(sx, "_SLICE_VALUES", 1)
        often = run_all(config).to_json_dict()
        assert json.dumps(often) == json.dumps(once)
        euler = once["suites"][vf.SUITE_NAMES.index("euler_feuerbach")]
        assert not euler["pass"] and euler["counterexample"]["check"].startswith("feuerbach k=")
        assert sum(not r["pass"] for r in once["suites"]) >= 3


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
        vf._check_euler_feuerbach(rec, sx._stack([s]), DEFAULT_POLICY)
        assert rec.result().counterexample["check"] == "feuerbach k=0 equidistance"

    def test_face_arrays_are_sliced(self):
        """The oracle's face arrays are built for slices of samples, so a
        600-sample d = 10 block peaks far below its 2046 faces times 600
        samples times d values."""
        rows = oc._pose_rows(oc._sample_rows(10, oc.ACUTE, 600, np.random.default_rng(1)), 1.0,
                             DEFAULT_POLICY)
        s = sx._from_vertex_rows(10, rows, DEFAULT_POLICY)
        rec = vf._Recorder("euler_feuerbach")
        tracemalloc.start()
        try:
            vf._check_euler_feuerbach(rec, s, DEFAULT_POLICY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.result().passed and peak < 32e6


class TestReciprocalLambdaSum:
    """The sum of 1/lambda is measured against the sum of |1/lambda|, so the
    check is scale-free."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_valid_simplex_passes_at_every_scale(self, scale):
        s = op.construct(op.sample_params(6, "acute", 0).bary, scale)
        rec = vf._Recorder("euler_feuerbach")
        vf._check_euler_feuerbach(rec, sx._stack([s]), DEFAULT_POLICY)
        result = rec.result()
        assert result.counterexample is None and result.max_residual <= 1.0

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
        vf._check_euler_feuerbach(rec, sx._stack([s]), DEFAULT_POLICY)
        assert rec.result().counterexample["check"] == "reciprocal lambda sum"


class TestCheckSet:
    """The checks each suite queues in a default run at d 2..10, pinned so
    that adding or dropping a check shows in this test's diff.  The guard
    labels ("block completes", "admissible equiradial fixture builds") are
    queued only on a failure, so a passing run holds none of them."""

    PAIRS = ("centroid-circumcenter", "centroid-incenter", "centroid-monge",
             "circumcenter-incenter", "circumcenter-monge", "incenter-monge")
    SUITE_CHECKS = {
        "center_equivalences": {
            "circumcenter equidistance contract",
            "incenter facet-distance contract",
            "incenter=centroid => equiareal",
            "equiareal => incenter=centroid",
            "centroid=circumcenter => well-distributed edges",
            "well-distributed edges => centroid=circumcenter",
            "circumcenter=incenter => equiradial",
            "circumcenter=incenter => interior",
            "equiradial and interior => circumcenter=incenter",
        },
        "regularity": {
            *(f"separated: {pair}" for pair in PAIRS),
            "near-regular separation bounded by perturbation",
            "separations shrink with the perturbation",
        },
        "euler_feuerbach": {
            *(f"feuerbach k={k} equidistance" for k in range(10)),
            "feuerbach k=0 radius is circumradius",
            "altitude feet on facet-centroid sphere",
            "reciprocal lambda sum",
            "lambda pairwise distances",
        },
        "rectangular": {
            "legs volume",
            "hypotenuse facet volume",
            "corner altitude",
            "leg inradius",
            "incenter equals (r, ..., r)",
            "leg circumradius",
            "circumcenter midpoint form",
            "hypotenuse orthocenter",
            *(f"rect separated: {pair}" for pair in PAIRS),
            "rect circumcenter barycentrics (1/2, ..., 1/2, (2-d)/2)",
            "lift round trip",
            "lift must reject non-negative obtuseness",
        },
    }

    def test_each_suite_queues_the_pinned_checks(self, monkeypatch):
        queued = {}
        real = vf._Recorder.check

        def check(rec, label, *args, **kwargs):
            queued.setdefault(rec.name, set()).add(label)
            return real(rec, label, *args, **kwargs)

        monkeypatch.setattr(vf._Recorder, "check", check)
        assert run_all(SuiteConfig(seed=42, d_max=10)).passed
        assert queued == self.SUITE_CHECKS


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
        """Two vertices of draw j coincide or lie ``gap`` apart, an edge
        matrix with a zero pivot or a thin simplex, and so do two of the
        first draw that replaces it."""
        d, k = 3, 10
        for gap in (0.0, 1e-9):
            stream = np.random.default_rng(j).normal(size=(k + 3) * (d + 1) * d)
            draws = stream.reshape(-1, d + 1, d)
            draws[j, 1] = draws[j, 0] + gap  # draw j is degenerate
            draws[k, 3] = draws[k, 2] + gap  # and so is the first draw that replaces it

            reference, rng = [], StreamRng(stream)
            while len(reference) < k:  # the loop the block replaced
                try:
                    reference.append(op.from_vertices(d, rng.normal(0.0, 1.0, size=(d + 1, d))))
                except op.DegenerateSimplexError:
                    continue
            block_rng = StreamRng(stream)
            block = vf._random_simplices(d, k, block_rng, DEFAULT_POLICY)
            assert block_rng.used == rng.used == (k + 2) * (d + 1) * d
            assert block.dim == d
            assert block.vertices.tolist() == [s.vertices.tolist() for s in reference]

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
        rows = vf._separated_samples(d, per_kind, rng, DEFAULT_POLICY)
        kept = [("acute", a) for a in range(per_kind + 2) if a not in (j, j + 1)] + [
            ("obtuse", a) for a in range(per_kind)]
        want = [op.construct(tables[kind][a], 1.0).vertices.tolist() for kind, a in kept]
        assert rows.shape == (2 * per_kind, d + 1, d) and rows.tolist() == want
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
    """Each (suite, d) block is built with one stacked inverse, the frame it
    is decided by, and draws from one generator: counts, not timings.
    Verify makes no other inverse and no eigensolve, at any d: the family
    fixtures are rows of their blocks.  It calls neither ``from_vertices``,
    ``face``, ``params_of`` nor ``sample_params``."""

    def counted(self, monkeypatch, suite, samples):
        calls = {"from_vertices": 0, "face": 0, "params_of": 0, "sub_seed": 0,
                 "sample_params": 0}
        inverses = count_inverses(monkeypatch)
        for module, name, key in ((sx, "from_vertices", "from_vertices"), (sx, "face", "face"),
                                  (oc, "params_of", "params_of"),
                                  (vf, "_sub_seed", "sub_seed"),
                                  (oc, "sample_params", "sample_params")):
            def counting(*args, _real=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        families._regular.cache_clear()  # every count starts from an empty fixture cache
        result = vf.run_all(SuiteConfig(suites=(suite,), samples=samples, seed=3,
                                        d_min=2, d_max=10)).suites[0]
        assert result.passed
        monkeypatch.undo()
        return {**calls, "stacked": sum(len(shape) == 3 for shape in inverses),
                "single": sum(len(shape) == 2 for shape in inverses)}

    def test_one_flat_settle_per_suite(self, monkeypatch):
        """All suites at d 2..5 queue many checks per (suite, d) block and
        settle each suite with one ratio evaluation; a passing run never
        calls the counterexample locator."""
        calls = {"check": 0, "ratios": 0, "locate": 0}
        for owner, name, key in ((vf._Recorder, "check", "check"), (vf, "_ratios", "ratios"),
                                 (vf._Recorder, "_locate", "locate")):
            def counting(*args, _real=getattr(owner, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        assert run_all(SuiteConfig(samples=12, seed=3, d_min=2, d_max=5)).passed
        assert calls["ratios"] == 4 and calls["locate"] == 0
        assert calls["check"] > 40 * calls["ratios"]

    def test_no_simplex_is_built_per_sample(self, monkeypatch):
        """Every block is one stack from the draw to the checks: all suites
        at d 2..6 build as many single simplices (vertices with two axes)
        at 240 samples as at 60."""
        real = sx.Simplex.__init__

        def singles(samples):
            built = []

            def init(self, *args, **kwargs):
                real(self, *args, **kwargs)
                if self.vertices.ndim == 2:
                    built.append(self.dim)

            monkeypatch.setattr(sx.Simplex, "__init__", init)
            families._regular.cache_clear()
            assert run_all(SuiteConfig(samples=samples, d_min=2, d_max=6)).passed
            monkeypatch.undo()
            return len(built)

        assert singles(60) == singles(240)

    @pytest.mark.parametrize("suite, blocks", [
        ("center_equivalences", {"stacked": 9}),
        ("regularity", {"stacked": 9}),
        ("euler_feuerbach", {"stacked": 9}),
        ("rectangular", {"stacked": 9}),
    ])
    def test_one_eigensolve_per_block(self, monkeypatch, suite, blocks):
        """At d 2..10, the kite (d >= 4) and equiradial (d = 9, 10) fixtures
        included: one stacked inverse and one generator per block, and
        nothing else.  The name is kept from the eigenvalue rule: the count
        is now of the frame's inverse, and any eigensolve fails the test."""
        few = self.counted(monkeypatch, suite, 12)
        many = self.counted(monkeypatch, suite, 40)
        assert few == many  # nothing is built per sample
        want = {"single": 0, "from_vertices": 0, "face": 0, "params_of": 0, "sub_seed": 9,
                "sample_params": 0}
        assert few == {**want, **blocks}
