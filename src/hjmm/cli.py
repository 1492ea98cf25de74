"""Command-line front end.

Subcommands
-----------
classify   growth classification of the configured noise model
solve      one path: simulate, solve the fixed point, emit field files
           and ``solve_report.json``, whose ``c1_bound`` is the a-priori
           norm bound (null when no bound exists below 1e12)
verify     run the invariant suites
mc         Monte Carlo martingale test of discounted bond prices

Every subcommand takes --config and --out.  Only the subcommands that
read a flag accept it: --seed (override mc.master_seed, at least 0) on
solve, verify and mc; --allow-explosive on solve; --threads (worker
threads, at least 1; at most one per block of paths and one per CPU
starts) on mc.

Exit codes: 0 success (existence / converged / suites pass / test pass),
1 invalid configuration or command-line usage, 2 explosion verdict,
3 indeterminate verdict, 4 solver exploded or hit the iteration cap,
5 a verification suite failed, 6 the martingale test failed.  The
HJMM_LOG environment variable sets the log level; at ``debug`` every
solved path logs each iteration's sup_diff, norm and smallest increment,
then its seed, jump count, status and iterations.  Reruns
with the same config and seed write byte-identical files for any
--threads value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, HjmmError
from .grids import RateField, below_diagonal
from .levy import Verdict, classify_growth
from .market import martingale_test
from .solver import STATUS_CONVERGED, apriori_bound, solve_path, weighted_norms
from .verification import run_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EXPLOSION = 2
EXIT_INDETERMINATE = 3
EXIT_DIVERGED = 4
EXIT_VERIFY_FAILED = 5
EXIT_MC_FAILED = 6

# the exit code of each classifier verdict, for classify and solve
_VERDICT_EXIT = {Verdict.EXISTENCE: EXIT_OK, Verdict.EXPLOSION: EXIT_EXPLOSION,
                 Verdict.INDETERMINATE: EXIT_INDETERMINATE}


def _jsonable(obj):
    """Make a report JSON-safe and deterministic (no NaN/inf literals)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if math.isnan(val):
            return None
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10e}"
    return str(value)


def _out_dir(args, config: RunConfig) -> str:
    out = args.out if args.out else config.outputs["directory"]
    os.makedirs(out, exist_ok=True)
    return out


def _seed(args, config: RunConfig) -> int:
    return args.seed if args.seed is not None else config.mc["master_seed"]


def cmd_classify(args, config: RunConfig) -> int:
    result = classify_growth(config.levy, config.volatility.lambda_upper,
                             config.grid.t_star)
    payload = {
        "verdict": result.verdict.value,
        "rule_fired": result.rule_fired.value,
        "rho": result.rho,
        "notes": result.notes,
    }
    out = _out_dir(args, config)
    _write_json(os.path.join(out, "classification.json"), payload)
    print(f"classification: {result.verdict.value} "
          f"(rule {result.rule_fired.value})")
    return _VERDICT_EXIT[result.verdict]


def cmd_solve(args, config: RunConfig) -> int:
    result = classify_growth(config.levy, config.volatility.lambda_upper,
                             config.grid.t_star)
    if result.verdict != Verdict.EXISTENCE and not args.allow_explosive:
        print(f"refusing to solve: classifier says {result.verdict.value} "
              "(use --allow-explosive to force)", file=sys.stderr)
        return _VERDICT_EXIT[result.verdict]
    seed = _seed(args, config)
    grid = config.grid
    path, b_vals, a_vals, report = solve_path(
        config.levy, config.volatility, config.curve, grid, [seed, 0],
        config.mc["eps"], **config.solver)
    # b = 1 at t = 0, so row 0 of a = f0 * b is f0 on the maturity nodes
    r0_norm = weighted_norms(RateField(a_vals, grid), grid, 0.0).l2_gamma
    b_sup = float(b_vals.max())
    # a factor field that overflowed has no a-priori bound
    c1_bound = (apriori_bound(config.levy, config.volatility, grid, r0_norm,
                              b_sup) if math.isfinite(b_sup) else None)
    out = _out_dir(args, config)
    payload = {
        "status": report.status,
        "iterations": report.iterations,
        "sup_diffs": report.sup_diffs,
        "norm_trace": report.norm_trace,
        "increment_mins": report.increment_mins,
        "c1_bound": c1_bound,
        "seed": seed,
        "n_jumps": path.n_jumps,
    }
    _write_json(os.path.join(out, "solve_report.json"), payload)
    if config.outputs["write_csv"]:
        _write_field_csvs(out, report.final_field)
    print(f"solve: {report.status} after {report.iterations} iterations")
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_DIVERGED


def _write_field_csvs(out: str, rate_field: RateField) -> None:
    grid = rate_field.grid
    values = rate_field.values
    t, T = np.meshgrid(grid.t_nodes(), grid.T_nodes(), indexing="ij")
    rows, cols = np.nonzero(~below_diagonal(values.shape))
    for name, header, columns in (
            ("field_standard.csv", ["t", "T", "f"], (t, T, values)),
            ("field_musiela.csv", ["t", "x", "r"],
             (t[rows, cols], (cols - rows) * grid.delta, values[rows, cols]))):
        _write_csv(os.path.join(out, name), header,
                   np.column_stack([c.ravel() for c in columns]))


def cmd_verify(args, config: RunConfig) -> int:
    report = run_all(config, _seed(args, config))
    out = _out_dir(args, config)
    payload = {
        "all_passed": report.all_passed,
        "suites": [dataclasses.asdict(s) for s in report.suites],
    }
    _write_json(os.path.join(out, "verification.json"), payload)
    for suite in report.suites:
        mark = "pass" if suite.passed else "FAIL"
        extra = f" ({suite.note})" if suite.note else ""
        print(f"verify {suite.name}: {mark}{extra}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_mc(args, config: RunConfig) -> int:
    report = martingale_test(
        config.levy, config.volatility, config.curve, config.grid,
        n_paths=config.mc["n_paths"], master_seed=_seed(args, config),
        eps=config.mc["eps"],
        t_checkpoints=config.mc["t_checkpoints"],
        T_checkpoints=config.mc["T_checkpoints"],
        threads=args.threads, **config.solver)
    out = _out_dir(args, config)
    rows = [(r.t, r.T, r.mean_discounted, r.reference, r.deviation,
             r.std, r.z_score, r.degenerate) for r in report.results]
    _write_csv(os.path.join(out, "martingale.csv"),
               ["t", "T", "mean_discounted", "reference", "deviation",
                "std", "z_score", "degenerate"], rows)
    summary = {
        "passed": report.passed,
        "valid": report.valid,
        "n_paths": report.n_paths,
        "n_excluded": report.n_excluded,
        "excluded_by_cause": report.excluded_by_cause,
        "master_seed": report.master_seed,
        "max_abs_z": report.max_abs_z,
        "mean_abs_deviation": report.mean_abs_deviation,
        "notes": report.notes,
    }
    _write_json(os.path.join(out, "martingale.json"), summary)
    print(f"martingale test: {'pass' if report.passed else 'FAIL'} "
          f"(max |z| = {report.max_abs_z:.3g}, "
          f"excluded {report.n_excluded}/{report.n_paths})")
    return EXIT_OK if report.passed else EXIT_MC_FAILED


def _integer_from(low: int):
    """An argparse type: a decimal integer of at least ``low``."""
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjmm",
        description="Forward-rate solver and simulator for jump-driven "
                    "term-structure models")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, help_text in (
            ("classify", "classify the noise model growth regime"),
            ("solve", "solve the fixed point on one simulated path"),
            ("verify", "run the invariant suites"),
            ("mc", "Monte Carlo martingale test")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output directory (default from config)")
        parsers[name] = p
    for name in ("solve", "verify", "mc"):
        parsers[name].add_argument("--seed", type=_integer_from(0),
                                   help="override mc.master_seed")
    parsers["solve"].add_argument(
        "--allow-explosive", action="store_true",
        help="run solve even when the classifier does not report existence")
    parsers["mc"].add_argument(
        "--threads", type=_integer_from(1), default=1,
        help="worker threads, at most one per block of paths and per CPU")
    return parser


def main(argv=None) -> int:
    # a name of the logging module that is not a level reads as WARNING
    level = getattr(logging, os.environ.get("HJMM_LOG", "").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int)
                        else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; argparse's own usage-error code 2 would read as
        # an explosion verdict
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {"classify": cmd_classify, "solve": cmd_solve,
                "verify": cmd_verify, "mc": cmd_mc}
    try:
        return handlers[args.command](args, config)
    except HjmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
