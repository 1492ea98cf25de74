"""One benchmark workload, measured in a fresh interpreter.

``run.py`` starts this script in a fresh interpreter (three, one after
another, for a ``--trace 0`` run), so set-up time and peak memory belong
to one workload.  It imports hjmm from the
checkout's ``src``, parses the workload's config document, classifies
the model, warms up with one operation and then

* runs operations untraced for ``--seconds`` (``--trace 0``), checking
  each one outside its timed region and scaling its times to the
  reference speed of ``reference.py``; or
* (``--trace 1``) does the same, then runs each of the workload's fixed
  ``trace_ops`` operations untraced and again traced, and derives the
  per-layer metrics from the spans.

An operation is one ``martingale_test`` call or one path pipeline
(simulate_path -> field_b -> field_a -> solve_fixed_point ->
bond_surface).  The result is one JSON object on the last line of
standard output; it also holds the unscaled wall-clock figures.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

from checks import (closed_form_problem, fixed_point_problem,
                    martingale_counts_problem, martingale_valid_problems,
                    replay_problem)
from reference import UNIT_S, SpeedGauge, speed_scale
from tracer import Tracer, untraced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THROUGHPUT_BLOCKS = 8
REFERENCE_SHARE = 0.25
SETUP_GAUGE_S = 0.3
STAGES = ("paths.simulate_path", "paths.field_b", "paths.field_a",
          "solver.solve_fixed_point", "market.bond_surface")


class Workload:
    """Inputs and operations of one workload, built from its config document."""

    def __init__(self, hjmm, doc: dict, cfg, seed: int) -> None:
        self.hjmm = hjmm
        self.doc = doc
        self.cfg = cfg
        self.seed = seed
        self.is_mc = doc["operation"] == "martingale_test"
        self.threads = int(doc["threads"])
        self.trace_ops = int(doc["trace_ops"])
        grid = cfg.grid
        self.cells = (grid.n_t + 1) * (grid.n_cols + 1)
        self.solver_kw = {k: cfg.solver[k]
                          for k in ("tol", "max_iter", "explosion_threshold")}
        self.n_paths = int(cfg.mc["n_paths"]) if self.is_mc else 1
        t_pts, T_pts = hjmm.default_checkpoints(grid)
        self.t_idx = np.array([grid.index_of_time(v) for v in t_pts], dtype=int)
        self.T_idx = np.array([grid.index_of_maturity(v) for v in T_pts], dtype=int)
        self.n_checkpoints = len(t_pts) * len(T_pts)
        self.dj = hjmm.fast_derivative(cfg.levy, 1)
        # the errors after which martingale_test excludes a path
        self.excluded_errors = tuple(
            getattr(hjmm, name) for name in ("NonPositiveFactor", "PathDiverged")
            if hasattr(hjmm, name))
        self.reference_spec = None
        if doc["check"] == "closed_form_match":
            ref_doc = json.loads(json.dumps(doc["config"]))
            ref_doc["levy"]["measure"] = doc["reference_measure"]
            self.reference_spec = hjmm.parse_config(ref_doc).levy

    # -- the pipeline -------------------------------------------------
    def pipeline(self, rng_seed, pid, call):
        """One path through the public calls, as martingale_test runs it.

        Returns (path, a_field, report, checkpoint row); the row is None
        for a path martingale_test would exclude.
        """
        hjmm, cfg = self.hjmm, self.cfg
        grid, vol, spec = cfg.grid, cfg.volatility, cfg.levy
        path = call("paths.simulate_path", pid, hjmm.simulate_path, spec,
                    grid.t_star, rng_seed, eps=cfg.mc["eps"])
        try:
            b = call("paths.field_b", pid, hjmm.field_b, vol, path, grid)
            a = call("paths.field_a", pid, hjmm.field_a, cfg.curve, b, grid)
            report = call("solver.solve_fixed_point", pid, hjmm.solve_fixed_point,
                          a, vol, spec, grid, **self.solver_kw)
        except self.excluded_errors:
            return path, None, None, None
        row = None
        if report.converged:
            surface = call("market.bond_surface", pid, hjmm.bond_surface,
                           report.final_field, grid)
            row = surface.discounted[np.ix_(self.t_idx, self.T_idx)].ravel()
        return path, a, report, row

    def martingale_call(self, c: int, call):
        cfg = self.cfg
        return call("market.martingale_test", None, self.hjmm.martingale_test,
                    cfg.levy, cfg.volatility, cfg.curve, cfg.grid,
                    n_paths=self.n_paths, master_seed=cfg.mc["master_seed"] + c,
                    eps=cfg.mc["eps"], threads=self.threads, **self.solver_kw)

    def run_op(self, k: int, call):
        """Operation k: returns what its check needs."""
        if self.is_mc:
            return self.martingale_call(k, call)
        return self.pipeline([self.seed, k], k, call)

    # -- checks -------------------------------------------------------
    def path_problem(self, result, applied=None) -> str | None:
        """Check of one path pipeline; ``applied`` is K(f) when already known."""
        _, a, report, _ = result
        if report is None:
            return "the pipeline raised an error that excludes the path"
        hjmm, cfg = self.hjmm, self.cfg
        if self.reference_spec is not None:
            reference = hjmm.solve_fixed_point(
                a, cfg.volatility, self.reference_spec, cfg.grid, **self.solver_kw)
            return closed_form_problem(report, reference)
        if applied is None and report.converged:
            applied = hjmm.apply_K(report.final_field, a, cfg.volatility,
                                   cfg.levy, cfg.grid)
        return fixed_point_problem(report, applied, cfg.solver["tol"])

    def call_problems(self, reports) -> list[str | None]:
        if self.doc["check"] == "martingale_valid":
            return martingale_valid_problems(reports, self.n_paths,
                                             self.n_checkpoints,
                                             self.cfg.raw["initial_curve"])
        return [martingale_counts_problem(r, self.n_paths, self.n_checkpoints)
                for r in reports]

    # -- traced operations --------------------------------------------
    def traced_op(self, k: int, tracer: Tracer) -> str | None:
        if not self.is_mc:
            with tracer.span("pipeline", k):
                result = self.pipeline([self.seed, k], k, tracer.call)
            applied = self.record_path(tracer, k, *result[:3])
            return self.path_problem(result, applied)
        report = self.martingale_call(k, tracer.call)
        samples = np.full((self.n_paths, self.n_checkpoints), np.nan)
        excluded = 0
        master = self.cfg.mc["master_seed"] + k
        with tracer.span("replay"):
            for j in range(self.n_paths):
                pid = k * self.n_paths + j
                with tracer.span("pipeline", pid):
                    path, a, rep, row = self.pipeline([master, j], pid, tracer.call)
                self.record_path(tracer, pid, path, a, rep)
                if row is None:
                    excluded += 1
                else:
                    samples[j] = row
        kept = samples[~np.isnan(samples[:, 0])]
        means = [float(np.mean(kept[:, p])) if kept.shape[0] else math.nan
                 for p in range(self.n_checkpoints)]
        return (replay_problem(report, excluded, kept.shape[0], means)
                or martingale_counts_problem(report, self.n_paths,
                                             self.n_checkpoints))

    def record_path(self, tracer: Tracer, pid: int, path, a, report):
        """Counts of one path, then direct calls that time single layers.

        Returns K(f) for a converged path (the fixed-point check reuses it).
        """
        hjmm, cfg = self.hjmm, self.cfg
        grid, vol, spec = cfg.grid, cfg.volatility, cfg.levy
        tracer.count("paths.jumps", path.n_jumps, pid)
        if report is None:
            tracer.count("paths.excluded_error", 1, pid)
        else:
            tracer.count("solver.iterations", report.iterations, pid)
            tracer.count("solver.status." + report.status, 1, pid)
        applied = None
        with tracer.span("probe", pid):
            if path.n_jumps:
                tracer.call("measures.sample_sizes", pid, spec.measure.sample_sizes,
                            np.random.default_rng(pid), path.n_jumps,
                            path.truncation_eps)
            tracer.call("volatility.on_grid", pid, vol.on_grid, grid)
            if report is not None and report.converged:
                field = report.final_field
                applied = tracer.call("solver.apply_K", pid, hjmm.apply_K, field,
                                      a, vol, spec, grid)
                tracer.call("solver.timeline_norm", pid, hjmm.timeline_norm,
                            field.values, grid)
                tracer.call("grids.flat_extend", pid, hjmm.flat_extend,
                            field.values)
                z_top = vol.lambda_upper * float(np.max(field.values)) * grid.t_max
                z = np.linspace(0.0, z_top, self.cells)
                tracer.call("measures.dj", pid, self.dj, z)
        return applied


def untraced_op(work: Workload, k: int):
    """Run operation k untraced: (wall seconds, result), result None if it raised."""
    t0 = time.perf_counter()
    try:
        result = work.run_op(k, untraced)
    except Exception as exc:  # an operation that raises counts as failed
        print(f"op {k} raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def measure(work: Workload, seconds: float, first_op: int = 0) -> dict:
    """Untraced operations for ``seconds`` of wall time, checked outside timing.

    Each path pipeline is checked right after its timed region; martingale
    calls are checked together at the end, since their check pools the
    deviation over the run.  Reference units (``reference.py``) run after
    each operation, in REFERENCE_SHARE of the operations' time, and the
    times of each block of consecutive operations are scaled to the
    reference speed by the units run in that block.  Operations are
    numbered from ``first_op``.
    """
    walls, units, reports, failed = [], [], [], 0
    gauge = SpeedGauge(REFERENCE_SHARE)
    deadline = time.perf_counter() + seconds
    k = first_op
    while time.perf_counter() < deadline:
        wall, result = untraced_op(work, k)
        problem = "raised" if result is None else None
        if result is not None:
            walls.append(wall)
            units.append(gauge.after(wall))
            if work.is_mc:
                reports.append(result)
            else:
                problem = work.path_problem(result)
        if problem:
            print(f"op {k}: {problem}", file=sys.stderr)
            failed += 1
        k += 1
    for c, problem in enumerate(work.call_problems(reports)):
        if problem:
            print(f"call {c}: {problem}", file=sys.stderr)
            failed += 1
    # throughput of each block of consecutive operations; the median block
    # is not moved by a stall that other tenants of the machine cause in one
    cuts = [round(i * len(walls) / THROUGHPUT_BLOCKS)
            for i in range(THROUGHPUT_BLOCKS + 1)]
    out = {"attempted": k - first_op, "failed": failed, "samples": len(walls),
           "block_rates": [], "latencies": [], "wall_block_rates": [],
           "wall_latencies": [], "speed_scales": []}
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        spent = sum(u[0] for u in units[a:b])
        scale = UNIT_S * sum(u[1] for u in units[a:b]) / spent
        rate = (b - a) * work.n_paths / sum(walls[a:b])
        out["wall_block_rates"].append(rate)
        out["block_rates"].append(rate / scale)
        out["wall_latencies"] += [w * 1e3 / work.n_paths for w in walls[a:b]]
        out["latencies"] += [w * scale * 1e3 / work.n_paths for w in walls[a:b]]
        out["speed_scales"].append(scale)
    return out


def trace_run(work: Workload, tracer: Tracer, seconds: float) -> dict:
    """Per-layer metrics: a timed untraced phase, then fixed traced operations.

    The untraced phase is the ``--trace 0`` measurement and gives the
    latency tail.  Then each of the workload's ``trace_ops`` operations
    runs untraced and traced; the per-layer metrics come from the spans.
    ``tracer`` already holds the set-up spans.
    """
    timed = measure(work, seconds)
    n_ops = work.trace_ops
    untraced_wall, reports, failed = 0.0, [], timed["failed"]
    # each operation runs untraced, then traced, so drifts in machine speed
    # during the run affect both sides alike
    for k in range(n_ops):
        wall, result = untraced_op(work, k)
        untraced_wall += wall
        problem = "raised" if result is None else None
        if work.is_mc and result is not None:
            reports.append(result)
        elif result is not None:
            problem = work.path_problem(result)
        try:
            traced_problem = work.traced_op(k, tracer)
        except Exception as exc:  # a traced operation that raises counts as failed
            traced_problem = f"raised {exc!r}"
        for p in (problem, traced_problem):
            if p:
                print(f"op {k}: {p}", file=sys.stderr)
                failed += 1
    failed += sum(p is not None for p in work.call_problems(reports))

    paths = n_ops * work.n_paths
    op_span = "market.martingale_test" if work.is_mc else "pipeline"
    op_walls = [tracer.duration(i) for i in tracer.spans_of(op_span)]
    traced_rate = paths / sum(op_walls)
    untraced_rate = paths / untraced_wall

    def ms(name):
        own = tracer.self_times_of(name)
        return statistics.median(own) * 1e3 if own else math.nan

    jumps = tracer.counts_of("paths.jumps")
    iters = tracer.counts_of("solver.iterations")
    statuses = {s: sum(tracer.counts_of("solver.status." + s))
                for s in ("Converged", "Exploded", "MaxIterations")}
    n_replayed = len(jumps)
    converged = {p for (n, _, p) in tracer.counts
                 if n == "solver.status.Converged"}
    iters_by_path = {p: v for (n, v, p) in tracer.counts
                     if n == "solver.iterations"}
    wasted = sum(v for p, v in iters_by_path.items() if p not in converged)
    stage_time = sum(sum(tracer.self_times_of(s)) for s in STAGES)
    pipeline_time = sum(tracer.duration(i) for i in tracer.spans_of("pipeline"))
    call_time = work.threads * sum(op_walls)

    # iterations x one norm, against the solve, on paths that have both
    own = tracer.self_times()
    solve_by_path = {tracer.paths[i]: own[i]
                     for i in tracer.spans_of("solver.solve_fixed_point")}
    norm_by_path = {tracer.paths[i]: own[i]
                    for i in tracer.spans_of("solver.timeline_norm")}
    norm_share = (sum(iters_by_path[p] * t for p, t in norm_by_path.items())
                  / sum(solve_by_path[p] for p in norm_by_path))

    apply_ms = ms("solver.apply_K")
    metrics = {
        "paths.simulate_ms": ms("paths.simulate_path"),
        "measures.sample_sizes_ms": ms("measures.sample_sizes"),
        "paths.jumps_per_path": statistics.fmean(jumps),
        "paths.field_b_ms": ms("paths.field_b"),
        "paths.field_a_ms": ms("paths.field_a"),
        "volatility.on_grid_ms": ms("volatility.on_grid"),
        "solver.solve_ms": ms("solver.solve_fixed_point"),
        "solver.iterations_mean": statistics.fmean(iters),
        "solver.iterations_max": max(iters),
        "solver.timeline_norm_ms": ms("solver.timeline_norm"),
        "solver.norm_share": norm_share,
        "grids.flat_extend_ms": ms("grids.flat_extend"),
        "solver.apply_ms": apply_ms,
        "solver.cells": work.cells,
        "solver.apply_ns_per_cell": apply_ms * 1e6 / work.cells,
        "measures.dj_ns_per_point": ms("measures.dj") * 1e6 / work.cells,
        "solver.converged_share": statuses["Converged"] / n_replayed,
        "solver.exploded_share": statuses["Exploded"] / n_replayed,
        "solver.max_iter_share": statuses["MaxIterations"] / n_replayed,
        "solver.wasted_iter_share": wasted / sum(iters),
        "market.bond_surface_ms": ms("market.bond_surface"),
        "market.excluded_share": (n_replayed - statuses["Converged"]) / n_replayed,
        "market.overhead_share": 1.0 - stage_time / call_time,
        "market.pool_efficiency": pipeline_time / call_time,
        "setup.import_s": ms("setup.import") / 1e3,
        "config.parse_ms": ms("config.parse_config"),
        "levy.classify_ms": ms("levy.classify_growth"),
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
        "solve_ms_p90": _percentiles(timed["latencies"])[1],
        "failed_share": failed / (timed["attempted"] + 2 * n_ops),
    }
    spans_file = ROOT / ".bench_out" / f"spans-{work.doc['name']}-seed{work.seed}.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps(tracer.to_json()))
    return {"attempted": timed["attempted"] + 2 * n_ops, "failed": failed,
            "samples": timed["samples"], "metrics": metrics,
            "spans_file": str(spans_file.relative_to(ROOT))}


def _percentiles(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-op", type=int, default=0,
                    help="number of the first timed operation (--trace 0)")
    ap.add_argument("--spawned-at", type=float, default=PROCESS_START,
                    help="time.monotonic() of the parent just before it "
                         "started this process")
    args = ap.parse_args()

    doc = json.loads((BENCH_DIR / "workloads" / f"{args.workload}.json").read_text())
    doc["name"] = args.workload
    config = json.loads(json.dumps(doc["config"]))
    config.setdefault("mc", {})["master_seed"] = args.seed

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer()
    with tracer.span("setup.import"):
        import hjmm
    if Path(hjmm.__file__).resolve().parent != src / "hjmm":
        raise SystemExit(f"hjmm imported from {hjmm.__file__}, not from {src}")

    cfg = tracer.call("config.parse_config", None, hjmm.parse_config, config)
    tracer.call("levy.classify_growth", None, hjmm.classify_growth, cfg.levy,
                cfg.volatility.lambda_upper, cfg.grid.t_star)

    work = Workload(hjmm, doc, cfg, args.seed)
    if work.is_mc:
        # a small call at the workload's thread count starts the pool once
        hjmm.martingale_test(cfg.levy, cfg.volatility, cfg.curve, cfg.grid,
                             n_paths=2 * work.threads, master_seed=args.seed,
                             eps=cfg.mc["eps"], threads=work.threads,
                             **work.solver_kw)
    else:
        work.run_op(0, untraced)
    setup_s = time.monotonic() - args.spawned_at
    scale = speed_scale(SETUP_GAUGE_S)

    import scipy
    out = {"setup_s": setup_s * scale, "setup_wall_s": setup_s,
           "python": sys.version.split()[0],
           "numpy": np.__version__, "scipy": scipy.__version__}
    if args.trace:
        out.update(trace_run(work, tracer, args.seconds))
    else:
        out.update(measure(work, args.seconds, args.first_op))
        out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
