"""Benchmark of orthoplex: four seeded workloads, end to end and per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; it uses the checkout that holds this file.  Each
workload runs in fresh worker processes (bench/worker.py), one at a time,
one thread each, closed loop.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With ``--workload all`` its metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread here and in the workers; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REF_MS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes per run; the median is reported.
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170


def spawn(mode: str, workload: str, seed: int, seconds: int) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--t0", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} {workload} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int, wanted: list) -> tuple[dict, dict]:
    runs = [spawn("setup", workload, seed, seconds) for _ in range(SETUP_RUNS - 1)]
    main = spawn("measure", workload, seed, seconds)
    runs.append(main)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setups = [r["setup_s"] for r in runs]
    main["setup_s"] = statistics.median(setups)
    main["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in runs)
    main["raw_peak_rss_mb"] = main["peak_rss_mb"]
    n = main["ops"]
    print(f"workload {workload} seed {seed}: closed loop, 1 caller, 1 thread, {n} timed ops; "
          f"reference kernel median {main['ref_ms']:.3f} ms (nominal {REF_MS} ms)")
    notes = {
        "throughput_ops_s": f"n={n} ops",
        "latency_p50_ms": f"n={n}",
        "latency_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
        "peak_rss_mb": "ru_maxrss of the worker",
        "setup_s": f"median of {SETUP_RUNS} processes: "
                   + ", ".join(f"{v:.3f}" for v in setups),
    }
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"  {'metric':<18} {'calibrated':>12} {'raw':>12}")
    for name, note in notes.items():
        print(f"  {name:<18} {main[name]:12.4f} {main['raw_' + name]:12.4f} {units[name]:<5} "
              f"({note})")
    print(f"  {'fail_ratio':<18} {failed / attempted:12.4f}  ({failed}/{attempted} ops, "
          "warm-up included)")
    print("  d-sweep, median calibrated latency per class (diagnostic, not gated):")
    for label, (p50, count) in main["sweep"].items():
        print(f"    {label:<22} {p50:10.3f} ms  (n={count})")
    m = main["machine"]
    print(f"  machine: python {m['python']}, numpy {m['numpy']}, blas {m['blas']}, "
          f"nproc {m['nproc']}")
    return main, {"attempted": attempted, "failed": failed}


def per_layer(workload: str, seed: int, seconds: int, wanted: list) -> tuple[dict, dict]:
    res = spawn("trace", workload, seed, seconds)
    print(f"workload {workload} seed {seed}: traced run, {res['ops']} ops, "
          f"{res['spans']} spans, spans in .bench_out/")
    for m in wanted:
        print(f"  {m['name']:<54} {res['metrics'][m['name']]:14.4f} {m['unit']}")
    return res["metrics"], {"attempted": res["attempted"], "failed": res["failed"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "orthoplex" / "__init__.py").is_file():
        print(f"no orthoplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        run = per_layer if args.trace else end_to_end
        values, counts = run(name, args.seed, args.seconds, wanted)
        attempted += counts["attempted"]
        failed += counts["failed"]
        for m in wanted:
            key = f"{name}.{m['name']}" if args.workload == "all" else m["name"]
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
