"""``orthoplex analyze --json`` output, pinned byte for byte.

The documents are built here from seeded numpy draws: orthocentric acute
and obtuse simplices under a random similarity and Gaussian simplices at
d in {2, 3, 4, 8, 12}, plus a rectangular simplex, a regular 171-simplex
(volume 0.0: d! is no float) and a regular 30-simplex of edge 1e12
(volume clamped to the largest float).  A change meant to alter these
outputs rewrites the file with ``python tests/test_analyze_golden.py``
and says so.
"""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import orthoplex as op
from orthoplex import cli
from conftest import random_rotation

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"


def _similar(v: np.ndarray, rng) -> np.ndarray:
    """``v`` rotated, scaled by a factor in [0.5, 2) and shifted."""
    d = v.shape[1]
    return rng.uniform(0.5, 2.0) * v @ random_rotation(d, rng).T + rng.normal(size=d)


def documents() -> dict:
    """Label -> simplex document, the inputs of the golden outputs."""
    docs = {}
    for d in (2, 3, 4, 8, 12):
        rng = np.random.default_rng(d)
        for kind in ("acute", "obtuse"):
            s = op.construct(op.sample_params(d, kind, d).bary, rng.uniform(0.5, 2.0))
            docs[f"{kind}-{d}"] = _similar(s.vertices, rng)
        docs[f"gaussian-{d}"] = rng.normal(size=(d + 1, d))
    docs["rect-3"] = op.rectangular(op.RectSpec(3, (1.0, 2.0, 3.0))).vertices
    docs["regular-171"] = op.regular(171, 1.0).vertices
    docs["regular-30-edge-1e12"] = op.regular(30, 1e12).vertices
    return {label: {"dim": v.shape[1], "vertices": v.tolist()} for label, v in docs.items()}


def analyze(doc: dict) -> str:
    """What ``orthoplex analyze --json`` prints for ``doc``."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(json.dumps(doc)), io.StringIO()
    try:
        assert cli.main(["analyze", "--json"]) == 0
        return sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


DOCS = documents()


@pytest.mark.parametrize("label", list(DOCS))
def test_analysis_bytes(monkeypatch, label):
    monkeypatch.delenv("ORTHOPLEX_TOL", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[label]
    assert analyze(DOCS[label]) == want


def test_edge_documents_reach_both_ends_of_the_volume_rule():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(golden["regular-171"])["volume"] == 0.0
    assert json.loads(golden["regular-30-edge-1e12"])["volume"] == sys.float_info.max


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: analyze(doc) for label, doc in DOCS.items()},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
