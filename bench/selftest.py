"""Self-test of the benchmark: declared metrics and fault detection.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` declares the workloads of
``bench/workloads`` with the same reasons, and every metric with a unit
and a direction.  Then, for each workload, runs one small operation and
hands its check first the true output and then a deliberately wrong
one: the failed share must be 0 for the first and must rise for the
second.  Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import copy
import json
import sys

from checks import martingale_valid_problems, replay_problem
from tracer import untraced
from worker import ROOT, Workload

sys.path.insert(0, str(ROOT / "src"))
import hjmm  # noqa: E402

E2E_UNITS = {"setup_s": "s", "paths_per_s": "1/s", "solve_ms_p50": "ms",
             "peak_rss_mb": "MB"}


def declared_problems() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    files = {p.stem: json.loads(p.read_text())["why"]
             for p in (ROOT / "bench" / "workloads").glob("*.json")}
    listed = {w["name"]: w["why"] for w in bench["workloads"]}
    if files != listed:
        problems.append("BENCHMARK.json workloads differ from bench/workloads")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for name, unit in E2E_UNITS.items():
        m = e2e.get(name)
        if m is None or m["unit"] != unit or m["better"] not in ("higher", "lower"):
            problems.append(f"end-to-end metric {name} missing or malformed")
        elif not 0.0 < m["bound"] <= 0.25:
            problems.append(f"bound of {name} outside (0, 0.25]")
    if e2e.get("setup_s", {}).get("bound") != max(m["bound"] for m in e2e.values()):
        problems.append("setup_s must have the largest bound")
    for m in bench["per_layer"]:
        if not m.get("unit") or m.get("better") not in ("higher", "lower"):
            problems.append(f"per-layer metric {m.get('name')} malformed")
    return problems


def workload(name: str, seed: int = 5) -> Workload:
    doc = json.loads((ROOT / "bench" / "workloads" / f"{name}.json").read_text())
    doc["name"] = name
    config = copy.deepcopy(doc["config"])
    config["mc"]["master_seed"] = seed
    return Workload(hjmm, doc, hjmm.parse_config(config), seed)


def perturbed_path(result):
    path, a, report, row = result
    bad = copy.deepcopy(report)
    bad.final_field.values[3, 5] *= 1.0 + 1e-6
    return path, a, bad, row


def shifted(report, by: float):
    bad = copy.deepcopy(report)
    bad.results[4].mean_discounted += by
    return bad


def share(problems) -> float:
    return sum(p is not None for p in problems) / len(problems)


def fault_problems() -> list[str]:
    out = []

    def expect(label, good, bad):
        print(f"{label}: failed_share {good:g} on true output, "
              f"{bad:g} with one wrong output")
        if not (good == 0.0 and bad > good):
            out.append(f"{label}: the check does not separate true and wrong output")

    for name in ("solve-fine", "solve-user-density"):
        w = workload(name)
        result = w.run_op(0, untraced)
        good = w.path_problem(result)
        bad = w.path_problem(perturbed_path(result))
        expect(name, share([good]), share([good, bad]))

    w = workload("mc-gamma")
    reports = [w.run_op(k, untraced) for k in range(3)]
    good = martingale_valid_problems(reports, w.n_paths, w.n_checkpoints,
                                     w.cfg.raw["initial_curve"])
    # the shifted call moves 0.01 from the exact price, tens of standard errors
    bad = martingale_valid_problems(reports[:2] + [shifted(reports[2], -0.01)],
                                    w.n_paths, w.n_checkpoints,
                                    w.cfg.raw["initial_curve"])
    expect("mc-gamma", share(good), share(bad))

    w = workload("mc-explosive")
    report = w.run_op(0, untraced)
    means = [r.mean_discounted for r in report.results]
    kept = report.n_paths - report.n_excluded
    good = replay_problem(report, report.n_excluded, kept, means)
    wrong_mean = replay_problem(shifted(report, 1e-15), report.n_excluded, kept, means)
    wrong_count = replay_problem(report, report.n_excluded + 1, kept - 1, means)
    expect("mc-explosive", share([good]), share([good, wrong_mean, wrong_count]))
    return out


def main() -> int:
    problems = declared_problems() + fault_problems()
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
