import ast
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import orthoplex as op
from orthoplex import centers
from orthoplex import cli
from orthoplex import simplex as sx
from conftest import count_inverses, random_rotation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestConstruct:
    def test_regular_unit_distances(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "regular", "--dim", "3", "--edge", "1")
        assert code == 0
        v = np.array(doc["vertices"])
        assert doc["dim"] == 3 and v.shape == (4, 3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0, abs=1e-12)

    def test_ortho_round_trip_through_analyze(self, capsys, monkeypatch):
        code, doc, _ = run_json(
            capsys, "construct", "ortho", "--bary", "0.4,0.3,0.2,0.1", "--obtuseness", "1"
        )
        assert code == 0
        code, analysis, _ = run_json(
            capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0
        assert analysis["orthocentric"] is True
        assert np.allclose(analysis["ortho_params"]["bary"], [0.4, 0.3, 0.2, 0.1], atol=1e-8)
        assert analysis["ortho_params"]["class"] == "acute"

    def test_equiradial_9_2(self, capsys, monkeypatch):
        code, doc, _ = run_json(
            capsys, "construct", "equiradial", "--dim", "9", "--m", "2", "--branch", "1"
        )
        assert code == 0
        v = np.array(doc["vertices"])
        assert v.shape == (10, 9)
        s = op.from_vertices(9, v)
        radii = [
            op.circumcenter(sx.face(s, sx.facet_indices(s)[i]))[1] for i in range(10)
        ]
        assert max(radii) - min(radii) <= 1e-8 * max(radii)

    def test_kite_and_rect(self, capsys):
        code, doc, _ = run_json(
            capsys, "construct", "kite", "--dim", "5", "--base-edge", "1",
            "--apex-edge", str(math.sqrt(0.6)),
        )
        assert code == 0 and doc["dim"] == 5
        code, doc, _ = run_json(capsys, "construct", "rect", "--legs", "3,4")
        assert code == 0
        assert np.allclose(doc["vertices"], [[3, 0], [0, 4], [0, 0]])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        code, out, _ = run_cli(
            capsys, "construct", "regular", "--dim", "2", "--edge", "1", "--out", str(path)
        )
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["dim"] == 2

    def test_missing_flags_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "construct", "regular", "--dim", "3")
        assert code == 1 and out == ""
        assert "error" in json.loads(err)

    def test_unparsable_legs_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "construct", "rect", "--legs", "1,x")
        assert code == 1 and out == ""
        assert "could not parse float list" in json.loads(err)["error"]

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "construct", "ortho", "--bary", "0.5,0.5,-0.5,0.5")
        assert code == 1
        assert "error" in json.loads(err)
        code, _, err = run_cli(capsys, "construct", "equiradial", "--dim", "8", "--m", "2")
        assert code == 1
        assert "inadmissible" in json.loads(err)["error"]

    @pytest.mark.parametrize("apex", ["1e308", "inf"])
    def test_kite_edge_out_of_range_exits_1(self, capsys, apex):
        code, out, err = run_cli(capsys, "construct", "kite", "--dim", "3",
                                 "--base-edge", "1", "--apex-edge", apex)
        assert code == 1 and out == ""
        assert "kite edges" in json.loads(err)["error"]


class TestAnalyze:
    def test_rect_3_4(self, capsys, monkeypatch):
        doc = {"dim": 2, "vertices": [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]}
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert a["centers"]["inradius"] == pytest.approx(1.0)
        assert a["centers"]["circumradius"] == pytest.approx(2.5)
        assert a["orthocentric"] is True
        assert a["ortho_params"]["class"].startswith("rectangular")

    def test_orthocentric_at_a_loose_tolerance_without_parameters(self, capsys, monkeypatch):
        """At --tol 0.5 this Gaussian 5-simplex passes the orthocentricity
        test, but its Monge barycentrics fail the sign pattern: the document
        has no parameters and still has its Euler block."""
        doc = {"dim": 5, "vertices": [
            [0.781, 0.264, -0.314, 1.458, 1.96], [1.802, 1.315, 0.357, -1.208, -0.004],
            [0.656, -1.288, 0.395, 0.43, 0.696], [-1.184, -0.662, -0.436, -1.17, 1.739],
            [-0.496, 0.329, -0.259, 1.583, 1.32], [0.633, -2.204, 0.052, 0.684, 1.004]]}
        code, a, _ = run_json(capsys, "analyze", "--tol", "0.5", "--json", stdin=json.dumps(doc),
                              monkeypatch=monkeypatch)
        assert code == 0 and a["orthocentric"] is True and a["ortho_params"] is None
        assert a["euler"] is not None and set(a["euler"]) == {
            "coincident", "collinearity_residual", "ratio"}

    @pytest.mark.parametrize("d, edge", [(60, "1e-6"), (170, "1"), (171, "1"), (200, "1")])
    def test_regular_inradius_without_the_volume(self, capsys, monkeypatch, d, edge):
        """The volume underflows to 0 here (and d! is no float at d >= 171);
        the inradius s / sqrt(2 d (d+1)) does not read it."""
        code, doc, _ = run_json(capsys, "construct", "regular", "--dim", str(d), "--edge", edge)
        assert code == 0
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        want = float(edge) / math.sqrt(2 * d * (d + 1))
        assert a["centers"]["inradius"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [171, 200])
    def test_kite_pipe_above_the_factorial_range(self, capsys, monkeypatch, d):
        """The kite reads only the altitude of its closed forms; their volume
        does not raise where d! is no float."""
        code, doc, _ = run_json(capsys, "construct", "kite", "--dim", str(d),
                                "--base-edge", "1", "--apex-edge", "1")
        assert code == 0 and doc["dim"] == d
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0 and a["orthocentric"] is True

    def test_acute_200_simplex_not_equiareal(self, capsys, monkeypatch):
        """Its facet volumes are near 1e-120, under the old absolute floor."""
        s = op.construct(op.sample_params(200, "acute", 0).bary, 1.0)
        doc = json.dumps(cli.simplex_to_doc(s))
        code, a, _ = run_json(capsys, "analyze", stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert a["orthocentric"] is True and a["ortho_params"]["class"] == "acute"
        assert a["shape"]["is_equiareal"] is False and 0.0 < a["volume"] < 1e-100

    def test_regular_4_simplex(self, capsys, monkeypatch):
        s = op.regular(4, 1.0)
        doc = cli.simplex_to_doc(s)
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert len(a["coincident_pairs"]) == 6
        assert a["ortho_params"]["class"] == "acute"
        assert np.allclose(a["ortho_params"]["bary"], 0.2, atol=1e-9)
        assert a["shape"]["is_regular"] is True

    def test_equiradial_kite_flags(self, capsys, monkeypatch):
        k = op.kite(op.equiradial_kite(5))
        code, a, _ = run_json(
            capsys, "analyze", stdin=json.dumps(cli.simplex_to_doc(k)), monkeypatch=monkeypatch
        )
        assert code == 0
        assert a["shape"]["is_equiradial"] is True
        assert a["shape"]["is_regular"] is False
        assert a["orthocentric"] is True

    def test_malformed_json_exit_1(self, capsys, monkeypatch):
        code, _, err = run_json(capsys, "analyze", stdin="{not json", monkeypatch=monkeypatch)
        assert code == 1
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("command", ["analyze", "lift-rect"])
    def test_deeply_nested_json_exit_1(self, capsys, monkeypatch, command):
        """Nesting beyond the parser's recursion limit is malformed input,
        not a RecursionError traceback."""
        code, out, err = run_json(capsys, command, stdin="[" * 100000, monkeypatch=monkeypatch)
        assert code == 1 and out is None
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed JSON input")

    @pytest.mark.parametrize("command", ["analyze", "lift-rect"])
    def test_non_utf8_file_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"dim": 2}).encode("utf-16-le"))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "UTF-8" in json.loads(err)["error"]
        assert "Traceback" not in err

    def test_degenerate_exit_1(self, capsys, monkeypatch):
        doc = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
        code, _, err = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1
        assert "affinely dependent" in json.loads(err)["error"]

    @pytest.mark.parametrize("env, doc, message", [
        ("abc", {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}, "ORTHOPLEX_TOL"),
        (None, {"dim": 2}, "'dim' and 'vertices'"),
    ], ids=["tol", "no-vertices"])
    def test_bad_input_exit_1(self, capsys, monkeypatch, env, doc, message):
        if env is not None:
            monkeypatch.setenv("ORTHOPLEX_TOL", env)
        code, out, err = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1 and out is None
        assert message in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["analyze", "lift-rect"])
    def test_integer_beyond_float_range_exit_1(self, capsys, monkeypatch, command):
        """A JSON integer too large for a float is bad input, reported as one
        error line rather than an OverflowError traceback."""
        text = '{"dim": 2, "vertices": [[0, 0], [1%s, 0], [0, 1]]}' % ("0" * 400)
        code, out, err = run_json(capsys, command, stdin=text, monkeypatch=monkeypatch)
        assert code == 1 and out is None
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("vertices are not a numeric array")

    @pytest.mark.parametrize("vertices, named", [
        ([["0", "0"], ["1", "0"], ["0", "1"]], "'0'"),
        ([[0, 0], [" 1 ", 0], [0, 1]], "' 1 '"),
        ([[True, False], [False, True], [False, False]], "True"),
        ([[0, 0], [1, 0], [0, False]], "False"),
    ], ids=["strings", "padded-string", "booleans", "one-boolean"])
    def test_coordinate_that_is_not_a_number_exit_1(self, capsys, monkeypatch, vertices, named):
        doc = {"dim": 2, "vertices": vertices}
        with pytest.raises(op.InputError, match=f"coordinate {named} is not a JSON number"):
            cli.simplex_from_doc(doc, op.DEFAULT_POLICY)
        code, out, err = run_json(capsys, "analyze", stdin=json.dumps(doc),
                                  monkeypatch=monkeypatch)
        assert code == 1 and out is None
        assert json.loads(err)["error"] == f"coordinate {named} is not a JSON number"

    def test_integer_and_float_coordinates_are_read(self):
        ints = cli.simplex_from_doc({"dim": 2, "vertices": [[0, 0], [3, 0], [0, 4]]},
                                    op.DEFAULT_POLICY)
        floats = cli.simplex_from_doc({"dim": 2, "vertices": [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]},
                                      op.DEFAULT_POLICY)
        assert ints.vertices.tolist() == floats.vertices.tolist()

    def test_nan_rejected(self, capsys, monkeypatch):
        doc = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, None]]}
        code, _, err = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1

    def test_dim_one_rejected(self, capsys, monkeypatch):
        doc = {"dim": 1, "vertices": [[0.0], [1.0]]}
        code, _, err = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1

    def test_input_file_is_closed(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]}))
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code = cli.main(["analyze", str(path)])
            gc.collect()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["orthocentric"] is True
        assert unraisable == []

    def test_sorted_keys(self, capsys, monkeypatch):
        doc = {"dim": 2, "vertices": [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]}
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code = cli.main(["analyze", "--json"])
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert list(parsed.keys()) == sorted(parsed.keys())


class TestInputErrors:
    """Bad input to the CLI's helpers raises ``InputError``, so a library
    caller that catches it sees every one; ``main`` still exits 1."""

    @pytest.mark.parametrize("doc, message", [
        ({"dim": 2}, "'dim' and 'vertices'"),
        ([[0, 0], [1, 0], [0, 1]], "'dim' and 'vertices'"),
        ({"dim": 1, "vertices": [[0.0], [1.0]]}, "'dim' must be an integer >= 2"),
        ({"dim": "2", "vertices": [[0, 0], [1, 0], [0, 1]]}, "'dim' must be an integer >= 2"),
    ], ids=["no-vertices", "not-a-dict", "dim-one", "dim-string"])
    def test_simplex_from_doc(self, doc, message):
        with pytest.raises(op.InputError, match=message):
            cli.simplex_from_doc(doc, op.DEFAULT_POLICY)

    def test_tolerance_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("ORTHOPLEX_TOL", "abc")
        with pytest.raises(op.InputError, match="ORTHOPLEX_TOL='abc' is not a number"):
            cli._policy_from_env()

    def test_missing_construct_option(self):
        args = cli._PARSER.parse_args(["construct", "regular", "--dim", "3"])
        with pytest.raises(op.InputError, match="construct regular requires --edge"):
            cli._need(args, "dim", "edge")

    def test_float_list(self):
        with pytest.raises(op.InputError, match="could not parse float list '1,x'"):
            cli._floats("1,x")

    @pytest.mark.parametrize("raw, message", [
        (b"\xff\xfe{}", "input is not UTF-8 text"),
        (b"{not json", "malformed JSON input"),
    ], ids=["not-utf8", "malformed"])
    def test_read_doc(self, tmp_path, raw, message):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        with pytest.raises(op.InputError, match=message):
            cli._read_doc(str(path))


class TestDump:
    DOC = {
        "array": np.array([[1.0, -0.1], [1e-300, np.inf]]),
        "flags": [np.bool_(True), False, np.bool_(False)],
        "ints": (np.int64(3), np.intp(-2), 7),
        "floats": [np.float64(0.1), np.float32(0.25), 1.5, np.float64(np.nan)],
        "nested": {"b": (np.array([1, 2]), None), "a": "text"},
    }

    @pytest.mark.parametrize("compact", [True, False])
    def test_numpy_values_encode_like_plain_values(self, compact):
        from orthoplex.numerics import _plain

        if compact:
            want = json.dumps(_plain(self.DOC), sort_keys=True, separators=(",", ":"))
        else:
            want = json.dumps(_plain(self.DOC), sort_keys=True, indent=2)
        assert cli._dump(self.DOC, compact=compact) == want

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dump({"x": object()})


class TestLiftRect:
    def test_equilateral_sqrt2(self, capsys, monkeypatch):
        t = op.regular(2, math.sqrt(2.0))
        code, doc, err = run_json(
            capsys, "lift-rect", stdin=json.dumps(cli.simplex_to_doc(t)), monkeypatch=monkeypatch
        )
        assert code == 0
        legs = json.loads(err)["legs"]
        assert np.allclose(legs, 1.0, atol=1e-9)
        assert doc["dim"] == 3

    def test_obtuse_exit_1(self, capsys, monkeypatch):
        t = op.construct([2.0, -0.5, -0.5], 1.0)
        code, _, err = run_json(
            capsys, "lift-rect", stdin=json.dumps(cli.simplex_to_doc(t)), monkeypatch=monkeypatch
        )
        assert code == 1
        assert "not liftable" in json.loads(err)["error"]

    def test_lift_then_facet_matches_input(self, capsys, monkeypatch):
        t = op.construct([0.4, 0.35, 0.25], 1.0)
        code, doc, _ = run_json(
            capsys, "lift-rect", stdin=json.dumps(cli.simplex_to_doc(t)), monkeypatch=monkeypatch
        )
        assert code == 0
        lifted = op.from_vertices(doc["dim"], doc["vertices"])
        facet = sx.face(lifted, tuple(range(lifted.dim)))
        assert np.allclose(
            np.sort(sx.edge_lengths(facet)), np.sort(sx.edge_lengths(t)), atol=1e-8
        )


class TestVerifyCommand:
    def test_exit_zero_and_deterministic(self, capsys):
        argv = ["verify", "--suite", "all", "--samples", "8", "--seed", "42",
                "--dim-min", "2", "--dim-max", "4", "--json"]
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == 0 and code2 == 0
        assert out1 == out2  # byte-identical

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 1
        assert "unknown suite" in json.loads(err)["error"]

    def test_alias_suite(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "euler", "--samples", "6", "--seed", "7",
            "--dim-min", "2", "--dim-max", "3",
        )
        assert code == 0
        assert doc["suites"][0]["suite"] == "euler_feuerbach"
        assert doc["suites"][0]["elapsed_ms"] == 0

    def test_schema_fields(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "rect", "--samples", "4", "--seed", "1",
            "--dim-min", "2", "--dim-max", "3",
        )
        assert code == 0
        entry = doc["suites"][0]
        assert set(entry) == {"suite", "pass", "samples", "max_residual",
                              "counterexample", "elapsed_ms"}

    def test_closed_stdout_exits_141_quietly(self):
        """A reader that closed the pipe (``orthoplex verify --json | true``)
        ends the command with 141, as a shell reports SIGPIPE, and nothing
        on stderr: no error document and no message from the exit flush."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])]
        )
        env.pop("ORTHOPLEX_TOL", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orthoplex.cli", "verify", "--suite", "rect",
                 "--samples", "4", "--dim-max", "3", "--json"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_other_os_errors_exit_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 1 and out == ""
        assert "No such file" in json.loads(err)["error"]


def _strict(text: str):
    def refuse(constant):
        raise AssertionError(f"{constant} in an analysis document")

    return json.loads(text, parse_constant=refuse)


def _verdicts(doc: dict):
    """What an analysis document decides: flags, coincidence pairs, class."""
    params = doc["ortho_params"]
    return (doc["shape"], doc["coincident_pairs"], doc["orthocentric"],
            params and params["class"], doc["euler"] and doc["euler"]["coincident"])


class TestScaleDomain:
    """A similar copy of a simplex at any scale either lies outside the scale
    domain of ``from_vertices`` (InputError) or analyses to strict JSON with
    the flags, coincidence pairs and class of the unit-scale copy."""

    INSIDE = [10.0**e for e in (-135, -130, -120, -100, 100, 120, 130, 135)]
    OUTSIDE = [10.0**e for e in (-170, -165, -160, -156, -150, -145, -141,
                                 141, 145, 150, 153, 160, 165, 170)]

    @staticmethod
    def shapes():
        yield "regular-4", op.regular(4, 1.0).vertices
        yield "regular-7", op.regular(7, 1.0).vertices
        yield "gaussian-5", np.random.default_rng(5).normal(size=(6, 5))
        yield "acute-4", op.construct(op.sample_params(4, "acute", 1).bary).vertices
        yield "obtuse-6", op.construct(op.sample_params(6, "obtuse", 2).bary).vertices
        yield "rect-3", op.rectangular(op.RectSpec(3, (0.6, 1.0, 1.7))).vertices

    @pytest.mark.parametrize("name", ["regular-4", "regular-7", "gaussian-5", "acute-4",
                                      "obtuse-6", "rect-3"])
    def test_verdicts_hold_or_input_error(self, name):
        v = dict(self.shapes())[name]
        d = v.shape[1]
        want = _verdicts(_strict(cli._dump(cli.analysis_doc(op.from_vertices(d, v),
                                                            op.DEFAULT_POLICY))))
        for scale in self.INSIDE + self.OUTSIDE:
            try:
                s = op.from_vertices(d, v * scale)
            except op.InputError:
                assert scale in self.OUTSIDE, scale
                continue
            assert scale in self.INSIDE, scale
            doc = _strict(cli._dump(cli.analysis_doc(s, op.DEFAULT_POLICY)))
            assert _verdicts(doc) == want, scale

    @pytest.mark.parametrize("edge", ["1e-156", "1e-160", "1e141"])
    def test_construct_outside_the_domain_exits_1(self, capsys, edge):
        code, out, err = run_cli(capsys, "construct", "regular", "--dim", "4", "--edge", edge)
        assert code == 1 and out == ""
        assert "scale out of range" in json.loads(err)["error"]


class TestUsageErrors:
    """A bad or missing argument is an input error: one ``{"error": ...}``
    line on stderr and exit code 1 (2 means a failed verification);
    ``--help`` still exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--samples", "x"], "orthoplex verify: argument --samples: invalid int value"),
        (["bogus"], "orthoplex: argument command: invalid choice: 'bogus'"),
        ([], "orthoplex: the following arguments are required: command"),
        (["construct"], "the following arguments are required: kind"),
        (["construct", "ortho", "--bary", "-0.2,0.3,0.45,0.45"],
         "orthoplex construct: argument --bary: expected one argument"),
        (["verify", "--dim-max"], "argument --dim-max: expected one argument"),
        (["analyze", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and message in json.loads(err)["error"]

    def test_leading_minus_takes_the_equals_form(self, capsys):
        code, doc, err = run_json(capsys, "construct", "ortho", "--bary=-0.25,-0.25,1.5")
        assert code == 0 and err == ""
        assert doc["vertices"] == op.construct([-0.25, -0.25, 1.5]).vertices.tolist()

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["construct", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: orthoplex") and captured.err == ""
        if argv[0] == "construct":
            assert "--bary=-0.2" in captured.out


class TestRoundTripIdempotence:
    def test_construct_analyze_construct(self, capsys, monkeypatch):
        code, doc, _ = run_json(
            capsys, "construct", "ortho", "--bary", "0.35,0.3,0.2,0.15", "--obtuseness", "2"
        )
        code, analysis, _ = run_json(
            capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        bary = ",".join(repr(v) for v in analysis["ortho_params"]["bary"])
        scale = abs(analysis["ortho_params"]["obtuseness"])
        code, doc2, _ = run_json(
            capsys, "construct", "ortho", "--bary", bary, "--obtuseness", repr(scale)
        )
        assert code == 0
        e1 = np.sort(sx.edge_lengths(op.from_vertices(3, doc["vertices"])))
        e2 = np.sort(sx.edge_lengths(op.from_vertices(3, doc2["vertices"])))
        assert np.max(np.abs(e1 - e2)) <= 1e-8


class TestTolEnv:
    def test_env_override_parsed(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOPLEX_TOL", "1e-6")
        doc = {"dim": 2, "vertices": [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]}
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0

    def test_env_loosens_orthocentric_test(self, capsys, monkeypatch):
        # perturb a right-corner tetrahedron by ~1e-5: not orthocentric at
        # the default tolerance, orthocentric at a loosened one
        v = np.vstack([np.eye(3), np.zeros(3)])
        v[0, 1] += 1e-5
        doc = {"dim": 3, "vertices": v.tolist()}
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert a["orthocentric"] is False
        monkeypatch.setenv("ORTHOPLEX_TOL", "1e-2")
        code, a, _ = run_json(capsys, "analyze", stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert a["orthocentric"] is True


class TestWorkPerAnalysis:
    """Gate on work done, not on time: orthocentricity is decided once per
    center report, params_of and Euler line, never once per sphere, and
    each decision reads the one squared-edge misfit of the simplex."""

    @staticmethod
    def record(monkeypatch, module, name):
        """Patch ``module.name`` so each of its return values is appended to
        the list returned here."""
        returned = []
        original = getattr(module, name)

        def recording(simplex):
            returned.append(original(simplex))
            return returned[-1]

        monkeypatch.setattr(module, name, recording)
        return returned

    def results(self, monkeypatch, module, name, s):
        """What ``module.name`` returned on each call in one analysis_doc."""
        returned = self.record(monkeypatch, module, name)
        cli.analysis_doc(s, op.TolerancePolicy())
        return returned

    def misfits(self, monkeypatch, s):
        """(the misfit each decision in one analysis_doc read, the simplices
        it was computed for)."""
        builds = []

        def building(simplex, _build=sx.edge_perpendicularity_residual.__wrapped__):
            builds.append(simplex)
            return _build(simplex)

        monkeypatch.setattr(sx, "edge_perpendicularity_residual", sx._per_simplex(building))
        return self.results(monkeypatch, sx, "edge_perpendicularity_residual", s), builds

    @pytest.mark.parametrize("d", [4, 8, 64])
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_orthocentric_decides_three_times(self, monkeypatch, d, kind):
        p = op.sample_params(d, kind, d)
        s = op.construct(p.bary, 1.0)
        read, builds = self.misfits(monkeypatch, s)
        # the center report, params_of and the Euler line decide, and so
        # does feuerbach_spheres, which the document reads its spheres from
        assert len(read) == 3 + 1
        # the misfit is computed once, the other decisions read it back
        assert builds == [s] and all(m is read[0] for m in read)

    def test_general_decides_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        s = op.from_vertices(8, rng.normal(size=(9, 8)))
        read, builds = self.misfits(monkeypatch, s)
        # the center report decides, and feuerbach_spheres reads its misfit back
        assert len(read) == 1 + 1 and builds == [s] and read[1] is read[0]

    @pytest.mark.parametrize("orthocentric", [True, False])
    def test_circumcenter_solved_once(self, monkeypatch, orthocentric):
        rng = np.random.default_rng(5)
        if orthocentric:
            s = op.construct(op.sample_params(6, "acute", 6).bary, 1.0)
        else:
            s = op.from_vertices(6, rng.normal(size=(7, 6)))
        found = self.results(monkeypatch, centers, "circumcenter", s)
        assert len(found) >= 2
        assert all(c is found[0] for c in found)

    @pytest.mark.parametrize("orthocentric", [True, False])
    def test_monge_gram_built_once(self, monkeypatch, orthocentric):
        if orthocentric:
            s = op.construct(op.sample_params(6, "obtuse", 6).bary, 1.0)
        else:
            s = op.from_vertices(6, np.random.default_rng(5).normal(size=(7, 6)))
        builds = []

        def building(simplex, _build=centers._monge_gram.__wrapped__):
            builds.append(simplex)
            return _build(simplex)

        monkeypatch.setattr(centers, "_monge_gram", sx._per_simplex(building))
        cli.analysis_doc(s, op.TolerancePolicy())
        # the spheres below the facet level and params_of share one table;
        # a Gaussian simplex needs neither
        assert len(builds) == int(orthocentric) and all(b is s for b in builds)

    @pytest.mark.parametrize("d", [4, 8])
    def test_pair_table_and_volumes_built_once(self, monkeypatch, d):
        """Counted over the build and the analysis: the build's degeneracy
        decision makes the pair table and the frame that the analysis reads."""
        bary = op.sample_params(d, "acute", d).bary
        builds = []

        def building(simplex, _build=sx._pairs.__wrapped__):
            builds.append(simplex)
            return _build(simplex)

        monkeypatch.setattr(sx, "_pairs", sx._per_simplex(building))
        calls = dict.fromkeys(("det", "slogdet", "solve"), 0)
        for name in calls:
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        inverses = count_inverses(monkeypatch)
        s = op.construct(bary, 1.0)
        cli.analysis_doc(s, op.TolerancePolicy())
        # one pair table; one log-determinant for the volume, one inverse for
        # the edge frame, which the decision and every center and facet
        # quantity read; no eigensolve
        assert len(builds) == 1 and builds[0] is s
        assert calls == {"det": 0, "slogdet": 1, "solve": 0} and inverses == [(d, d)]

    @pytest.mark.parametrize("kind", ["acute", "obtuse", "gaussian"])
    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_one_inverse_from_document_to_analysis(self, monkeypatch, kind, d):
        """Reading a document and analysing it factors the simplex once:
        the frame its degeneracy decision reads; no eigensolve or SVD."""
        if kind == "gaussian":
            v = np.random.default_rng(d).normal(size=(d + 1, d))
        else:
            v = op.construct(op.sample_params(d, kind, d).bary, 1.0).vertices
        doc, pol = {"dim": d, "vertices": v.tolist()}, op.TolerancePolicy()
        inverses = count_inverses(monkeypatch)
        out = cli.analysis_doc(cli.simplex_from_doc(doc, pol), pol)
        # every triangle is orthocentric
        assert out["orthocentric"] == (kind != "gaussian" or d == 2) and inverses == [(d, d)]

    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_no_face_enumeration(self, monkeypatch, kind):
        s = op.construct(op.sample_params(8, kind, 8).bary, 1.0)
        original = itertools.combinations
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name == "itertools" or name.startswith("orthoplex"):
                if getattr(module, "combinations", None) is original:
                    monkeypatch.setattr(module, "combinations", counting)
        doc = cli.analysis_doc(s, op.TolerancePolicy())
        assert len(doc["feuerbach"]) == 8
        assert calls == []


class TestLargeDimensionAnalysis:
    """Every mid-face sphere at dimensions whose faces cannot be enumerated."""

    @pytest.mark.parametrize("d", [40, 64])
    @pytest.mark.parametrize("kind", ["acute", "obtuse"])
    def test_all_spheres(self, d, kind):
        policy = op.TolerancePolicy()
        s = op.construct(op.sample_params(d, kind, d).bary, 1.0)
        doc = cli.analysis_doc(s, policy)
        assert doc["orthocentric"] is True
        assert [sp["k"] for sp in doc["feuerbach"]] == list(range(d))
        for sp in doc["feuerbach"]:
            assert sp["max_residual"] <= 10 * policy.rel * sp["radius"], sp


def similarity_fixtures(d):
    rng = np.random.default_rng(300 + d)
    yield "gaussian", rng.normal(size=(d + 1, d))
    yield "regular", op.regular(d, 1.0).vertices
    for kind in ("acute", "obtuse"):
        yield kind, op.construct(op.sample_params(d, kind, d).bary, 1.0).vertices


class TestAnalysisSimilarity:
    """Every field of an analysis document follows a similarity x -> t (x Q + b)
    and a vertex permutation: lengths scale by t, the volume by t^d, the
    obtuseness by t^2, centers move with the points, and every ratio,
    boolean and label stays as it is."""

    REL = 1e-11

    def close(self, got, want, scale):
        assert np.abs(np.asarray(got) - np.asarray(want)).max() <= self.REL * scale

    @pytest.mark.parametrize("d", range(2, 13))
    def test_fields_follow_the_similarity(self, d):
        policy = op.TolerancePolicy()
        rng = np.random.default_rng(d)
        for name, v in similarity_fixtures(d):
            base = cli.analysis_doc(op.from_vertices(d, v), policy)
            for t in (1e-6, 1.0, 1e6):
                q, b = random_rotation(d, rng), rng.normal(size=d)
                perm = rng.permutation(d + 1)
                doc = cli.analysis_doc(op.from_vertices(d, (v[perm] @ q + b) * t), policy)
                diam = doc["diameter"]
                self.close(doc["diameter"], base["diameter"] * t, diam)
                assert doc["volume"] == pytest.approx(base["volume"] * t**d, rel=self.REL)
                for key, value in base["centers"].items():
                    if key.endswith("radius"):
                        self.close(doc["centers"][key], value * t, diam)
                    elif value is None:
                        assert doc["centers"][key] is None, (name, key)
                    else:
                        self.close(doc["centers"][key], (value @ q + b) * t, diam)
                self.close(doc["facet_circumradii"], base["facet_circumradii"][perm] * t, diam)
                assert [sp["k"] for sp in doc["feuerbach"]] == [sp["k"] for sp in base["feuerbach"]]
                self.close([sp["radius"] for sp in doc["feuerbach"]],
                           [sp["radius"] * t for sp in base["feuerbach"]], diam)
                assert doc["shape"] == base["shape"], (name, t)
                assert doc["coincident_pairs"] == base["coincident_pairs"], (name, t)
                assert doc["orthocentric"] == base["orthocentric"], (name, t)
                if base["ortho_params"] is None:
                    assert doc["ortho_params"] is None
                else:
                    got, want = doc["ortho_params"], base["ortho_params"]
                    assert got["class"] == want["class"]
                    self.close(got["bary"], want["bary"][perm], 1.0)
                    assert got["obtuseness"] == pytest.approx(want["obtuseness"] * t**2,
                                                              rel=self.REL)
                if base["euler"] is None:
                    assert doc["euler"] is None
                else:
                    assert doc["euler"]["coincident"] == base["euler"]["coincident"]
                    assert doc["euler"]["ratio"] == pytest.approx(base["euler"]["ratio"],
                                                                  rel=self.REL)


SRC = Path(op.__file__).resolve().parent


class TestValidationWithoutAsserts:
    """Validation must not rely on assert statements, which python -O drops."""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_equiradial_below_round_off_is_a_json_error(self, flags):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])]
        )
        env.pop("ORTHOPLEX_TOL", None)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "orthoplex.cli", "construct", "equiradial",
             "--dim", "9", "--m", "2", "--tol", "1e-16"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "equiradial" in json.loads(proc.stderr)["error"]

    def test_no_assert_statements_in_src(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestMemoryLayout:
    """A simplex is stored C-contiguous, so its analysis depends on its
    coordinates only, not on how the array that held them was laid out."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_face_document_equals_document_of_its_vertices(self, d):
        policy = op.TolerancePolicy()
        rng = np.random.default_rng(d)
        parents = (op.rectangular(op.RectSpec(d, tuple(rng.uniform(0.5, 2.0, size=d)))),
                   op.from_vertices(d, rng.normal(size=(d + 1, d))))
        for s in parents:
            for facet in sx.facet_indices(s).tolist():
                f = op.face(s, facet)
                assert f.vertices.flags.c_contiguous
                want = cli._dump(cli.analysis_doc(f, policy), compact=True)
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    g = op.from_vertices(d - 1, layout(f.vertices))
                    assert g.vertices.flags.c_contiguous
                    assert cli._dump(cli.analysis_doc(g, policy), compact=True) == want, facet
