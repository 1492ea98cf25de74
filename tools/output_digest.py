"""Print one SHA-256 digest of the solver's outputs per benchmark config.

For each config document in ``bench/workloads/*.json`` (read, never
written), and for three variants of the ``mc-gamma`` config that change
only its volatility (a maturity-dependent ``exp_decay`` term, a
``time_affine`` term that is time-only but not constant, and the sum of
a ``constant`` and an ``exp_decay`` term), it solves the paths with
seeds [7, i], i < 45, through ``hjmm.solver.solve_paths``: once in one
block and once in blocks of 15.  It adds one solve of the first
converged path restarted from twice its solution.  Every jump path, b
and a field, solver report and NonPositiveFactor message goes into the
digest of that config.  For each ``martingale_test`` workload it also
runs ``hjmm.martingale_test`` with master seed 7 on the workload's paths,
once on one thread and once on two (where two CPUs are free), and prints
one digest of the report (checkpoint means, stds and z-scores, and the
exclusions by cause) under the name ``<workload>-martingale``; it exits
with status 1, and prints no digest for that workload, if the two runs
differ.  For the ``mc-gamma`` and ``solve-user-density`` configs it
prints two more: ``<config>-verify``, of ``hjmm.run_all`` with seed 7
(each suite's name, verdict, details and note), and
``<config>-assumptions``, of ``hjmm.check_assumptions`` on the config's
model and volatility (the fields in ASSUMPTION_FIELDS).  For each
workload config it prints ``<config>-apriori``, of the ``c1_bound`` that
``hjmm solve --seed 7 --allow-explosive`` computes for path [7, 0] with
``hjmm.apriori_bound``.

    PYTHONPATH=src python tools/output_digest.py

Two checkouts that print the same digests give bitwise the same outputs
on these configs.  The digests hold only on one platform: the libm of
another operating system rounds exp and log differently.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import hjmm
from hjmm.errors import NonPositiveFactor
from hjmm.solver import solve_path, solve_paths

ROOT = Path(__file__).resolve().parent.parent
N_PATHS = 45
BLOCK = 15
SEED = 7

# the configs whose verification suites and assumption report are digested
CHECKED = ("mc-gamma", "solve-user-density")
# the fields of the assumption report that go into its digest: (A2),
# (A4), the second moment, the notes and the verdict
ASSUMPTION_FIELDS = ("a2_pass", "support_infimum", "a2_threshold",
                     "a4_pass", "a4_square_integral", "a4_tail_integral",
                     "second_moment", "second_moment_finite", "notes", "ok")


# the volatility terms of the mc-gamma variants, by name suffix
VARIANTS = {
    "exp-decay": [{"kind": "exp_decay", "level": 0.2, "rate": 0.5}],
    "time-affine": [{"kind": "time_affine", "intercept": 0.15, "slope": 0.1}],
    "constant-exp-decay": [{"kind": "constant", "level": 0.1},
                           {"kind": "exp_decay", "level": 0.15, "rate": 0.5}],
}


def _workloads() -> dict:
    """The workload documents of bench/workloads by name."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "bench" / "workloads").glob("*.json"))}


def _configs() -> dict:
    """Config documents by name: the workloads and the mc-gamma variants."""
    docs = {name: doc["config"] for name, doc in _workloads().items()}
    for suffix, terms in VARIANTS.items():
        variant = copy.deepcopy(docs["mc-gamma"])
        variant["volatility"] = {"terms": terms}
        docs[f"mc-gamma-{suffix}"] = variant
    return docs


def _add_report(digest, report) -> None:
    digest.update(f"{report.status} {report.iterations}".encode())
    for trace in (report.sup_diffs, report.norm_trace, report.increment_mins,
                  report.final_field.values):
        digest.update(np.asarray(trace, dtype=float).tobytes())


def config_digest(doc: dict) -> str:
    """The SHA-256 of the outputs of one config document."""
    cfg = hjmm.parse_config(doc)
    solver = {k: cfg.solver[k] for k in ("tol", "max_iter",
                                         "explosion_threshold")}
    seeds = [[SEED, i] for i in range(N_PATHS)]
    digest = hashlib.sha256()
    restart = None
    for size in (N_PATHS, BLOCK):
        for lo in range(0, N_PATHS, size):
            for entry in solve_paths(cfg.levy, cfg.volatility, cfg.curve,
                                     cfg.grid, seeds[lo:lo + size],
                                     cfg.mc["eps"], **solver):
                if isinstance(entry, NonPositiveFactor):
                    digest.update(str(entry).encode())
                    continue
                path, b, a, report = entry
                for arr in (path.times, path.sizes, b, a):
                    digest.update(arr.tobytes())
                _add_report(digest, report)
                if restart is None and report.converged:
                    restart = (a, report.final_field)
    if restart is not None:
        a, field = restart
        initial = hjmm.RateField(2.0 * field.values, cfg.grid)
        _add_report(digest, hjmm.solve_fixed_point(
            a, cfg.volatility, cfg.levy, cfg.grid, initial=initial, **solver))
    return digest.hexdigest()


def _martingale_configs() -> dict:
    """Config documents by name of the workloads that run martingale_test."""
    return {name: doc["config"] for name, doc in _workloads().items()
            if doc["operation"] == "martingale_test"}


def martingale_digest(doc: dict, threads: int) -> str:
    """The SHA-256 of the martingale_test report of one config document."""
    cfg = hjmm.parse_config(doc)
    report = hjmm.martingale_test(
        cfg.levy, cfg.volatility, cfg.curve, cfg.grid,
        n_paths=cfg.mc["n_paths"], master_seed=SEED, eps=cfg.mc["eps"],
        t_checkpoints=cfg.mc["t_checkpoints"],
        T_checkpoints=cfg.mc["T_checkpoints"], threads=threads, **cfg.solver)
    digest = hashlib.sha256()
    digest.update(np.array([(r.mean_discounted, r.std, r.z_score)
                            for r in report.results], dtype=float).tobytes())
    for cause, count in report.excluded_by_cause.items():
        digest.update(f"{cause} {count}".encode())
    return digest.hexdigest()


def verify_digest(doc: dict) -> str:
    """The SHA-256 of the run_all report of one config document."""
    digest = hashlib.sha256()
    for suite in hjmm.run_all(hjmm.parse_config(doc), SEED).suites:
        digest.update(repr((suite.name, suite.passed, suite.details,
                            suite.note)).encode())
    return digest.hexdigest()


def assumptions_digest(doc: dict) -> str:
    """The SHA-256 of the check_assumptions report of one config document."""
    cfg = hjmm.parse_config(doc)
    report = hjmm.check_assumptions(cfg.levy, cfg.volatility)
    digest = hashlib.sha256()
    for name in ASSUMPTION_FIELDS:
        digest.update(f"{name} {getattr(report, name)!r}".encode())
    return digest.hexdigest()


def apriori_digest(doc: dict) -> str:
    """The SHA-256 of the c1_bound of ``hjmm solve`` on one config document."""
    cfg = hjmm.parse_config(doc)
    _, b, a, _ = solve_path(cfg.levy, cfg.volatility, cfg.curve, cfg.grid,
                            [SEED, 0], cfg.mc["eps"], **cfg.solver)
    # as in hjmm solve: row 0 of a is f0, and an overflowed b has no bound
    r0_norm = hjmm.weighted_norms(hjmm.RateField(a, cfg.grid), cfg.grid,
                                  0.0).l2_gamma
    b_sup = float(b.max())
    c1_bound = (hjmm.apriori_bound(cfg.levy, cfg.volatility, cfg.grid,
                                   r0_norm, b_sup)
                if np.isfinite(b_sup) else None)
    return hashlib.sha256(repr(c1_bound).encode()).hexdigest()


def main() -> int:
    configs = _configs()
    for name, doc in configs.items():
        print(f"{name}: {config_digest(doc)}")
    status = 0
    for name, doc in _martingale_configs().items():
        serial, threaded = (martingale_digest(doc, threads) for threads in (1, 2))
        if serial != threaded:
            print(f"{name}-martingale: threads 1 and 2 differ", file=sys.stderr)
            status = 1
            continue
        print(f"{name}-martingale: {serial}")
    for name in CHECKED:
        print(f"{name}-verify: {verify_digest(configs[name])}")
        print(f"{name}-assumptions: {assumptions_digest(configs[name])}")
    for name in _workloads():
        print(f"{name}-apriori: {apriori_digest(configs[name])}")
    return status


if __name__ == "__main__":
    sys.exit(main())
