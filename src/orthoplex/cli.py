"""Command-line front end.

Subcommands:

  construct   emit a family member or parametrized orthocentric simplex
  analyze     full analysis (centers, shape flags, Euler/sphere data) of a
              simplex document read from a file or stdin
  lift-rect   realize an orthocentric simplex with interior orthocenter as
              the hypotenuse facet of a rectangular simplex
  verify      run the numerical verification suites

All input and output is JSON.  Keys are emitted sorted and floats use the
shortest round-trip representation, so documents are stable and diffable.
Exit codes: 0 ok (``--help`` too), 1 input error (a bad or missing
argument included), 2 verification failure, 141 standard output closed by
its reader.  The environment
variable ORTHOPLEX_TOL overrides the default relative tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .errors import InputError, OrthoplexError
from .numerics import TolerancePolicy, _json_default
from . import centers
from . import orthocentric as oc
from . import simplex as sx

__all__ = ["main", "simplex_to_doc", "simplex_from_doc", "analysis_doc"]


def _policy_from_env(tol: float | None = None) -> TolerancePolicy:
    if tol is None:
        env = os.environ.get("ORTHOPLEX_TOL")
        if env:
            try:
                tol = float(env)
            except ValueError as exc:
                raise InputError(f"ORTHOPLEX_TOL={env!r} is not a number") from exc
    return TolerancePolicy(rel=tol) if tol is not None else TolerancePolicy()


def _dump(doc, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default)


def simplex_to_doc(s: sx.Simplex, label: str | None = None) -> dict:
    doc = {"dim": s.dim, "vertices": s.vertices.tolist()}
    if label:
        doc["metadata"] = {"label": label}
    return doc


def simplex_from_doc(doc: dict, policy: TolerancePolicy) -> sx.Simplex:
    if not isinstance(doc, dict) or "dim" not in doc or "vertices" not in doc:
        raise InputError("document must carry 'dim' and 'vertices'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise InputError(f"'dim' must be an integer >= 2, got {dim!r}")
    vertices = doc["vertices"]
    rows = [row for row in vertices if type(row) is list] if type(vertices) is list else []
    if not {type(x) for row in rows for x in row} <= {int, float}:  # a bool is not a JSON number
        bad = next(x for row in rows for x in row if type(x) not in (int, float))
        raise InputError(f"coordinate {bad!r} is not a JSON number")
    return sx.from_vertices(dim, vertices, policy)


def analysis_doc(s: sx.Simplex, policy: TolerancePolicy) -> dict:
    """Full analysis: centers, shape predicates, orthocentric parameters
    when applicable, Euler-line and mid-face sphere data, facet radii."""
    found = dict(vars(centers.center_report(s, policy)))
    pairs = found.pop("coincident_pairs")
    doc = {
        "dim": s.dim,
        "volume": sx.volume(s),
        "diameter": sx.diameter(s),
        "centers": found,
        "coincident_pairs": [list(p) for p in pairs],
        "shape": dict(vars(sx.shape_predicates(s, policy))),
        "facet_circumradii": sx.facet_circumradii(s),
        "orthocentric": found["orthocenter"] is not None,
        "ortho_params": None,
        "euler": None,
        "feuerbach": [
            {"k": sphere.k, "radius": sphere.radius, "max_residual": sphere.max_residual}
            for sphere in centers.feuerbach_spheres(s, policy)
        ],
    }
    if found["orthocenter"] is not None:
        try:
            p = oc.params_of(s, policy)
            doc["ortho_params"] = {"bary": p.bary, "obtuseness": p.obtuseness, "class": p.klass}
        except InputError:
            pass  # parametrization degenerate at the active tolerance
        doc["euler"] = dict(vars(centers.euler_line(s, policy)))
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args, policy: TolerancePolicy) -> int:
    from . import families  # families and verify load only where a command runs them
    kind = args.kind
    if kind == "regular":
        _need(args, "dim", "edge")
        s = families.regular(args.dim, args.edge, policy)
        label = f"regular-{args.dim}"
    elif kind == "ortho":
        _need(args, "bary")
        s = oc.construct(_floats(args.bary), args.obtuseness, policy)
        label = "ortho"
    elif kind == "kite":
        _need(args, "dim", "base_edge", "apex_edge")
        s = families.kite(
            families.KiteSpec(args.dim, args.base_edge, args.apex_edge), policy
        )
        label = f"kite-{args.dim}"
    elif kind == "rect":
        _need(args, "legs")
        legs = _floats(args.legs)
        s = families.rectangular(families.RectSpec(len(legs), tuple(legs)), policy)
        label = f"rect-{len(legs)}"
    else:  # equiradial
        _need(args, "dim", "m")
        s, _ = families.equiradial_general(args.dim, args.m, args.branch, policy)
        label = f"equiradial-{args.dim}-{args.m}-{args.branch}"
    text = _dump(simplex_to_doc(s, label), compact=args.json)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise InputError(f"construct {args.kind} requires --{name.replace('_', '-')}")


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"could not parse float list {text!r}") from exc


def _read_doc(path: str | None) -> dict:
    try:
        if path in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        return json.loads(raw)
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nested past the parser's depth
        raise InputError(f"malformed JSON input: {exc}") from exc


def _cmd_analyze(args, policy: TolerancePolicy) -> int:
    s = simplex_from_doc(_read_doc(args.input), policy)
    print(_dump(analysis_doc(s, policy), compact=args.json))
    return 0


def _cmd_lift_rect(args, policy: TolerancePolicy) -> int:
    from . import families
    t = simplex_from_doc(_read_doc(args.input), policy)
    spec, lifted = families.lift_to_rectangular(t, policy)
    print(json.dumps({"legs": list(spec.legs)}), file=sys.stderr)
    print(_dump(simplex_to_doc(lifted, "lifted-rect"), compact=args.json))
    return 0


def _cmd_verify(args, policy: TolerancePolicy) -> int:
    from . import verify as vf
    names = vf.SUITE_NAMES if args.suite == "all" else (args.suite,)
    config = vf.SuiteConfig(
        suites=names,
        samples=args.samples,
        seed=args.seed,
        d_min=args.dim_min,
        d_max=args.dim_max,
        policy=policy,
    )
    report = vf.run_all(config)
    print(_dump(report.to_json_dict(timings=args.timings), compact=args.json))
    return 0 if report.passed else 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors: :func:`main`
    reports them as one ``{"error": ...}`` line with exit code 1, where
    argparse would print the usage and exit 2, the code of a failed
    verification.  Subcommand parsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="orthoplex",
        description="Construct, analyze and verify orthocentric simplices.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every subcommand
    common.add_argument("--tol", type=float)
    common.add_argument("--json", action="store_true", help="compact single-line JSON")

    con = sub.add_parser("construct", parents=[common], help="emit a simplex document")
    con.add_argument("kind", choices=["regular", "ortho", "kite", "rect", "equiradial"])
    con.add_argument("--dim", type=int)
    con.add_argument("--edge", type=float)
    con.add_argument("--bary", help="comma-separated orthocenter barycentrics; a tuple "
                     "that starts with a minus sign takes the --bary=-0.2,... form")
    con.add_argument("--obtuseness", type=float, default=1.0,
                     help="|obtuseness| scale for ortho construction")
    con.add_argument("--base-edge", dest="base_edge", type=float)
    con.add_argument("--apex-edge", dest="apex_edge", type=float)
    con.add_argument("--legs", help="comma-separated leg lengths")
    con.add_argument("--m", type=int, help="size of the first coordinate group")
    con.add_argument("--branch", type=int, default=1, choices=[1, 2])
    con.add_argument("--out", help="output file (default stdout)")
    con.set_defaults(func=_cmd_construct)

    ana = sub.add_parser("analyze", parents=[common], help="analyze a simplex document")
    ana.add_argument("input", nargs="?", help="input file (default stdin)")
    ana.set_defaults(func=_cmd_analyze)

    lift = sub.add_parser("lift-rect", parents=[common], help="lift to a rectangular simplex")
    lift.add_argument("input", nargs="?", help="input file (default stdin)")
    lift.set_defaults(func=_cmd_lift_rect)

    ver = sub.add_parser("verify", parents=[common], help="run verification suites")
    ver.add_argument("--suite", default="all",
                     help="suite name or 'all' (aliases: centers, euler, rect)")
    ver.add_argument("--samples", type=int, default=60)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--dim-min", dest="dim_min", type=int, default=2)
    ver.add_argument("--dim-max", dest="dim_max", type=int, default=6)
    ver.add_argument("--timings", action="store_true",
                     help="include wall times (breaks byte determinism)")
    ver.set_defaults(func=_cmd_verify)

    return top


_PARSER = _build_parser()


@lru_cache(maxsize=64)
def _parse(argv: tuple) -> argparse.Namespace:
    """Read-only: the parsed ``argv``, parsed once per distinct tuple and
    shared.  A usage error or ``--help`` raises, so it is never kept."""
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(tuple(sys.argv[1:] if argv is None else argv))
        code = args.func(args, _policy_from_env(args.tol))
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # silence the flush at exit too; 141 = 128 + SIGPIPE, as a shell reports it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OrthoplexError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
