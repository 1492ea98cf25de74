"""Correctness checks applied to every benchmark operation.

Each check returns a short description of what is wrong, or ``None``
when the operation's output is correct.  An operation with a problem
counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

# Largest deviation of a call's checkpoint mean from the exact price, in
# standard errors computed with the per-checkpoint standard deviation
# pooled over all calls of the run.  Per-path discounted prices of the
# gamma workload are strongly skewed (skewness about -5, excess kurtosis
# up to 39 over 4000 paths), so the report's own z-score, which uses the
# call's sample deviation, exceeds 4 on about 2.4% of correct 100-path
# calls.  With the pooled deviation, the largest |z| over 400 000
# resampled 100-path calls was 6.9, with the deviation fixed at its
# 4000-path value.
POOLED_Z_LIMIT = 8.0

# Closed-form and user-density solves on the same a-field must agree to this.
CLOSED_FORM_ATOL = 1e-10


def fixed_point_problem(report, applied, tol: float) -> str | None:
    """The solve converged and its field is a fixed point of K to ``tol``."""
    if not report.converged:
        return f"solver status {report.status}"
    residual = float(np.max(np.abs(applied.values - report.final_field.values)))
    if not residual <= tol:
        return f"sup|K(f) - f| = {residual:.3e} exceeds tol {tol:.1e}"
    return None


def closed_form_problem(report, reference) -> str | None:
    """The solve converged and matches the closed-form solve on its a-field."""
    if not report.converged:
        return f"solver status {report.status}"
    if not reference.converged:
        return f"closed-form reference solve status {reference.status}"
    gap = float(np.max(np.abs(report.final_field.values
                              - reference.final_field.values)))
    if not gap <= CLOSED_FORM_ATOL:
        return f"sup gap to closed-form solve {gap:.3e} > {CLOSED_FORM_ATOL:.0e}"
    return None


def martingale_counts_problem(report, n_paths: int, n_checkpoints: int) -> str | None:
    """Path accounting adds up and every checkpoint mean is a finite price."""
    if report.n_paths != n_paths:
        return f"report covers {report.n_paths} paths, asked for {n_paths}"
    if not 0 <= report.n_excluded <= n_paths - 2:
        return f"{report.n_excluded} of {n_paths} paths excluded"
    if len(report.results) != n_checkpoints:
        return f"{len(report.results)} checkpoints, expected {n_checkpoints}"
    for r in report.results:
        if not (math.isfinite(r.mean_discounted) and 0.0 <= r.mean_discounted <= 1.0):
            return f"checkpoint ({r.t}, {r.T}) mean {r.mean_discounted!r}"
    return None


def exact_discount(curve_doc: dict, T: float) -> float:
    """P(0, T) of the initial curve in closed form."""
    if curve_doc["family"] != "exponential_decay":
        raise ValueError(f"no closed form for curve family {curve_doc['family']!r}")
    level, rate = curve_doc["level"], curve_doc["rate"]
    integral = level * T if rate == 0.0 else level * -math.expm1(-rate * T) / rate
    return math.exp(-integral)


def martingale_valid_problems(reports, n_paths: int, n_checkpoints: int,
                              curve_doc: dict) -> list[str | None]:
    """Checks of a run's calls on a model where no path may be excluded.

    Each call must be valid, exclude no path, and keep every checkpoint
    mean within ``POOLED_Z_LIMIT`` pooled standard errors of the exact
    discounted price.
    """
    problems: list[str | None] = [
        martingale_counts_problem(r, n_paths, n_checkpoints) for r in reports]
    sigma = _pooled_sigma(reports, n_checkpoints)
    for c, report in enumerate(reports):
        if problems[c]:
            continue
        if not report.valid:
            problems[c] = f"report invalid: {report.notes}"
        elif report.n_excluded:
            problems[c] = f"{report.n_excluded} paths excluded"
        else:
            for p, r in enumerate(report.results):
                z = (r.mean_discounted - exact_discount(curve_doc, r.T)) \
                    / (sigma[p] / math.sqrt(n_paths))
                if not abs(z) <= POOLED_Z_LIMIT:
                    problems[c] = f"checkpoint ({r.t}, {r.T}) pooled z = {z:.2f}"
                    break
    return problems


def _pooled_sigma(reports, n_checkpoints: int) -> list[float]:
    """Per-checkpoint standard deviation over all kept paths of all calls."""
    usable = [r for r in reports if len(r.results) == n_checkpoints
              and all(math.isfinite(c.std) for c in r.results)]
    if not usable:
        return [math.nan] * n_checkpoints
    n = np.array([r.n_paths - r.n_excluded for r in usable], dtype=float)
    means = np.array([[c.mean_discounted for c in r.results] for r in usable])
    stds = np.array([[c.std for c in r.results] for r in usable])
    grand = (n[:, None] * means).sum(axis=0) / n.sum()
    ss = ((n[:, None] - 1.0) * stds ** 2
          + n[:, None] * (means - grand) ** 2).sum(axis=0)
    return list(np.sqrt(ss / (n.sum() - 1.0)))


def replay_problem(report, excluded: int, kept: int, means: list[float]) -> str | None:
    """A serial replay reproduces the call's exclusions and means bitwise."""
    if kept + excluded != report.n_paths:
        return f"replay kept {kept} + excluded {excluded} != {report.n_paths}"
    if excluded != report.n_excluded:
        return f"replay excluded {excluded}, call excluded {report.n_excluded}"
    got = [float(r.mean_discounted).hex() for r in report.results]
    want = [float(m).hex() for m in means]
    if got != want:
        return "replayed checkpoint means differ from the call's"
    return None
