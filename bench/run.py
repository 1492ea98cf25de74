"""Benchmark of the hjmm pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload mc-gamma --seed 1 --seconds 24 --trace 0

Workloads are the config documents in ``bench/workloads``.  Every
measurement runs ``bench/worker.py`` in a fresh interpreter with
BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the run is split
over PROCESSES interpreters, one after another, each timing its own
operations for an equal share of ``--seconds``; ``setup_s`` is the
median of their set-ups, the other metrics are medians over their
pooled samples.  With ``--trace 1`` one interpreter runs, and the
per-layer metrics come from spans recorded around each public hjmm call.

End-to-end times are scaled to a reference speed: the worker runs a
fixed reference computation (``reference.py``) beside the operations and
reports times as they would read on the machine where that computation
was timed.  The unscaled wall-clock figures are printed as comments.

Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units
are those of ``BENCHMARK.json``.  Without the hjmm sources next to this
directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROCESSES = 3
# process p numbers its operations from p * OPS_STRIDE, so the processes
# of one run time different inputs
OPS_STRIDE = 100_000
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(args, deadline: float, seconds: float, first_op: int = 0) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--first-op", str(first_op), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time limit")
    finally:
        # the worker's process group also holds any pool workers it forked
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "hjmm" / "__init__.py").is_file():
        print(f"no hjmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (BENCH_DIR / "workloads" / f"{args.workload}.json").is_file():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        if args.trace:
            result = run_worker(args, deadline, args.seconds)
            metrics = dict(result["metrics"])
            attempted, failed = result["attempted"], result["failed"]
        else:
            parts = [run_worker(args, deadline, args.seconds / PROCESSES,
                                p * OPS_STRIDE) for p in range(PROCESSES)]
            result = parts[0]
            pooled = {key: [v for part in parts for v in part[key]]
                      for key in ("block_rates", "latencies", "wall_block_rates",
                                  "wall_latencies", "speed_scales")}
            setups = [part["setup_s"] for part in parts]
            metrics = {
                "paths_per_s": statistics.median(pooled["block_rates"]),
                "solve_ms_p50": statistics.median(pooled["latencies"]),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
                "setup_s": statistics.median(setups),
            }
            attempted = sum(part["attempted"] for part in parts)
            failed = sum(part["failed"] for part in parts)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} are not the ones "
              "BENCHMARK.json declares", file=sys.stderr)
        return 3
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 3

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} commit={commit()} python={result['python']} "
          f"numpy={result['numpy']} scipy={result['scipy']}")
    if args.trace:
        print(f"# {result['samples']} timed operations")
    else:
        print(f"# {sum(p['samples'] for p in parts)} timed operations in "
              f"{PROCESSES} interpreters; set-up times "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        print("# unscaled wall clock: paths_per_s = "
              f"{statistics.median(pooled['wall_block_rates']):.6g} 1/s, "
              f"solve_ms_p50 = {statistics.median(pooled['wall_latencies']):.6g} ms, "
              "setup_s = "
              f"{statistics.median(p['setup_wall_s'] for p in parts):.6g} s; "
              f"speed scale {statistics.median(pooled['speed_scales']):.4f}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} "
          "operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
