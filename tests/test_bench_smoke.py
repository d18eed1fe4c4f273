"""The benchmark's own smoke tests (``python3 bench/smoke.py``) run with
the tier-1 suite, so its output oracles are checked on every change."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
