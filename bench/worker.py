"""Runs one workload in a fresh process, one thread, closed loop.

    python3 bench/worker.py --mode {setup,measure,trace} --workload NAME
                            --seed N --seconds S --t0 MONOTONIC

``--t0`` is ``time.monotonic()`` in the parent just before it started this
process; set-up time runs from there to the first timed op and covers
``import orthoplex``, input generation and one warm-up op per class.

* ``setup``: set up, then stop.
* ``measure``: set up, then run whole rounds until ``--seconds`` have
  passed and at least MIN_OPS ops are done, timing each op raw and
  calibrated for machine speed (speed.py).
* ``trace``: set up, then run ``trace_rounds`` rounds, each once untraced
  and once traced; write the spans to ``.bench_out/``.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import os

# One BLAS thread; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from speed import REF_MS, reference_ms  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_OPS = 100


class Tally:
    """Outcomes of the ops run so far.

    With ``calibrate`` the reference kernel runs after every op, and each
    latency is also kept calibrated by the mean of the reference times
    measured just before and just after it (see speed.py); ``ref_s`` is
    the time spent in the kernel.
    """

    def __init__(self, calibrate: bool = False):
        self.attempted = 0
        self.failed = 0
        self.facets = 0
        self.samples = 0
        self.latencies: list[float] = []
        self.calibrated: list[float] = []
        self.refs: list[float] = []
        if calibrate:
            cold = reference_ms()  # first run pays one-off costs; not a speed sample
            self.refs.append(reference_ms())
            self.ref_s = (cold + self.refs[0]) / 1e3
        self.by_class: dict[str, list[float]] = defaultdict(list)
        self.first_error: str | None = None

    def record(self, label: str, elapsed: float) -> None:
        self.latencies.append(elapsed)
        if self.refs:
            self.refs.append(reference_ms())
            self.ref_s += self.refs[-1] / 1e3
            elapsed *= REF_MS / ((self.refs[-2] + self.refs[-1]) / 2)
            self.calibrated.append(elapsed)
        self.by_class[label].append(elapsed)

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            print(message, file=sys.stderr)


def run_round(workload, seed: int, rnd: int, tally: Tally, tracer=None) -> None:
    """Run every class of round ``rnd`` once; only the op itself is timed."""
    for key in schedule(workload, seed, rnd):
        inp = workload.make_input(key, seed, rnd)
        if tracer is not None:
            tracer.op = tally.attempted
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:
            tally.fail(f"{workload.label(key)} round {rnd} raised:\n{traceback.format_exc()}")
            continue
        finally:
            tally.record(workload.label(key), time.perf_counter() - start)
        try:
            error = workload.check(inp, out)
        except Exception:
            error = f"output check raised:\n{traceback.format_exc()}"
        if error is not None:
            tally.fail(f"{workload.label(key)} round {rnd}: {error}")
        tally.facets += workload.facets(inp)
        tally.samples += workload.samples(out)


def setup(workload, seed: int, t0: float) -> tuple[Tally, float, float]:
    """Import, generate inputs and run the warm-up round; return its tally
    and the set-up time raw and calibrated.  Both leave out the reference
    kernel runs; the calibrated time is scaled by REF_MS over the median
    reference time measured during the warm-up round."""
    import orthoplex  # noqa: F401

    warm = Tally(calibrate=True)
    run_round(workload, seed, 0, warm)
    raw = time.monotonic() - t0 - warm.ref_s
    return warm, raw, raw * REF_MS / statistics.median(warm.refs)


def measure(workload, seed: int, seconds: float, warm: Tally) -> dict:
    tally = Tally(calibrate=True)
    start = time.monotonic()
    rnd = 1
    while time.monotonic() - start < seconds or tally.attempted < MIN_OPS:
        run_round(workload, seed, rnd, tally)
        rnd += 1
    labels = dict.fromkeys(workload.label(k) for k in workload.classes)
    out = {
        "attempted": warm.attempted + tally.attempted,
        "failed": warm.failed + tally.failed,
        "ops": len(tally.latencies),
        "ref_ms": statistics.median(tally.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sweep": {k: [statistics.median(tally.by_class[k]) * 1e3, len(tally.by_class[k])]
                  for k in labels},
    }
    for prefix, seconds_per_op in (("", tally.calibrated), ("raw_", tally.latencies)):
        ms = np.array(seconds_per_op) * 1e3
        out[prefix + "throughput_ops_s"] = len(ms) / (ms.sum() / 1e3)
        out[prefix + "latency_p50_ms"] = float(np.percentile(ms, 50))
        out[prefix + "latency_p90_ms"] = float(np.percentile(ms, 90))
    return out


def trace(workload, seed: int, warm: Tally, out_dir: Path) -> dict:
    # Each round runs untraced, then traced, so drift hits both alike.
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for rnd in range(1, workload.trace_rounds + 1):
        run_round(workload, seed, rnd, plain)
        tracer.install()
        try:
            run_round(workload, seed, rnd, traced, tracer=tracer)
        finally:
            tracer.remove()
    metrics = layer_metrics(tracer, traced.attempted, traced.facets)
    metrics["verify.samples_per_op"] = traced.samples / traced.attempted
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    write_spans(tracer, out_dir / f"spans-{workload.name}-seed{seed}.npz")
    return {
        "attempted": warm.attempted + plain.attempted + traced.attempted,
        "failed": warm.failed + plain.failed + traced.failed,
        "ops": traced.attempted,
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans as columns: name index, start, end, parent, op, raised, extra."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(exist_ok=True)
    spans = tracer.spans
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([index[s[0]] for s in spans], dtype=np.int32),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([s[3] for s in spans], dtype=np.int64),
        op=np.array([s[4] for s in spans], dtype=np.int64),
        raised=np.array([s[5] or "" for s in spans]),
        extra=np.array([-1 if s[6] is None else s[6] for s in spans], dtype=np.int64),
    )


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    warm, raw_setup_s, setup_s = setup(workload, args.seed, args.t0)
    if args.mode == "setup":
        result = {"attempted": warm.attempted, "failed": warm.failed}
    elif args.mode == "measure":
        result = measure(workload, args.seed, args.seconds, warm)
    else:
        result = trace(workload, args.seed, warm, ROOT / ".bench_out")
    result.update(setup_s=setup_s, raw_setup_s=raw_setup_s, machine=machine())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
