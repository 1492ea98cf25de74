"""Invariant suites: structural checks a healthy run must satisfy.

Each suite exercises one qualitative property of the machinery (monotone
iteration, norm embeddings, exponent monotonicity, positivity of the
jump factor, the strong differential form, two-start uniqueness) on the
model a run configuration describes, for every linear volatility,
time-only or maturity-dependent.  The suites that solve a path run
:func:`~hjmm.solver.solve_path`, the pipeline ``hjmm solve`` and the
Monte Carlo run.  A suite that needs a simulated jump path raises
UnsupportedSpec for a model the path simulator does not cover, and
:func:`run_all` turns that into a passed result with a "skipped" note; a
jump factor at or below zero (NonPositiveFactor) becomes a failed result
that names the jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import NonPositiveFactor, UnsupportedSpec
from .grids import RateField
from .levy import exponent_derivative, fast_derivative
from .solver import (solve_fixed_point, solve_path, solve_paths,
                     strong_residual, uniqueness_contraction_check)

__all__ = ["SuiteResult", "VerificationReport", "run_all"]

MONOTONE_TOL = 1e-12
FAST_VS_QUAD_RTOL = 1e-8


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class VerificationReport:
    """The results of :func:`run_all`, one per suite."""

    suites: list

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)


def suite_monotone_iterates(config: RunConfig, seed: int) -> SuiteResult:
    """Iterates from zero must grow pointwise and converge."""
    *_, report = solve_path(config.levy, config.volatility, config.curve,
                            config.grid, [seed, 0], config.mc["eps"],
                            **config.solver)
    worst = min(report.increment_mins) if report.increment_mins else 0.0
    ok = report.converged and worst >= -MONOTONE_TOL
    return SuiteResult("monotone_iterates", ok,
                       details={"status": report.status,
                                "iterations": report.iterations,
                                "min_increment": worst})


def suite_norm_embeddings(config: RunConfig, seed: int) -> SuiteResult:
    """Discrete Cauchy-Schwarz embeddings on random smooth curves.

    With u = gamma*delta, the trapezoid sum of e^{-gamma x} is bounded by
    (u/2)coth(u/2)/gamma and the left-endpoint sum by u/(1-e^{-u})/gamma,
    so the integral and sup embeddings carry the square roots of those
    factors; with them the inequalities are exact consequences of
    Cauchy-Schwarz on finite sums and must hold for every grid function.
    """
    grid = config.grid
    gamma = grid.gamma
    delta = grid.delta
    u = gamma * delta
    kappa_int = math.sqrt((u / 2.0) / math.tanh(u / 2.0))
    kappa_sup = math.sqrt(u / -math.expm1(-u))
    x = np.arange(grid.n_cols + 1) * delta
    weight = np.exp(gamma * x)
    rng = np.random.default_rng(seed)
    failures = 0
    worst_margin = math.inf
    for _ in range(100):
        coeffs = rng.normal(size=6)
        base = coeffs[0] + sum(
            c * np.cos((k + 1) * math.pi * x / grid.t_max)
            for k, c in enumerate(coeffs[1:]))
        h = base * base + rng.uniform(0.0, 0.5)
        integral = float(np.trapezoid(h, dx=delta))
        l2_sq = float(np.trapezoid(h * h * weight, dx=delta))
        fwd = np.diff(h) / delta
        deriv_sq = float(np.sum(delta * fwd * fwd * weight[:-1]))
        h1 = math.sqrt(l2_sq + deriv_sq)
        bound1 = kappa_int * math.sqrt(l2_sq) / math.sqrt(gamma)
        bound2 = float(h[0]) + kappa_sup * h1 / math.sqrt(gamma)
        m1 = bound1 - integral
        m2 = bound2 - float(np.max(h))
        worst_margin = min(worst_margin, m1, m2)
        if m1 < -1e-12 or m2 < -1e-12:
            failures += 1
    return SuiteResult("norm_embeddings", failures == 0,
                       details={"failures": failures,
                                "worst_margin": worst_margin,
                                "kappa_integral": kappa_int,
                                "kappa_sup": kappa_sup})


def suite_exponent_monotone(config: RunConfig) -> SuiteResult:
    """J' must be nondecreasing; fast and quadrature routes must agree."""
    spec = config.levy
    z = np.geomspace(1e-4, 50.0, 200)
    dj = fast_derivative(spec, 1)
    vals = dj(z)
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= -1e-10 * np.maximum(1.0, np.abs(vals[:-1]))))
    worst_rel = 0.0
    for zv in (0.05, 0.7, 3.0, 20.0):
        slow = exponent_derivative(spec, zv, 1)
        fast = float(dj(np.array([zv]))[0])
        scale = max(abs(slow), abs(fast), 1e-30)
        worst_rel = max(worst_rel, abs(slow - fast) / scale)
    ok = monotone and worst_rel < FAST_VS_QUAD_RTOL
    return SuiteResult("exponent_monotone", ok,
                       details={"monotone": monotone,
                                "fast_vs_quadrature_rel": worst_rel})


def suite_jump_factor_positive(config: RunConfig, seed: int) -> SuiteResult:
    """The realized jump factor must stay finite and strictly positive.

    Five paths, seeds (seed, 1000 + k), run through
    :func:`~hjmm.solver.solve_paths` as one block, and the suite reads
    their factor fields; a jump factor 1 + lambda*dL at or below zero
    fails the suite.
    """
    entries = solve_paths(config.levy, config.volatility, config.curve,
                          config.grid, [[seed, 1000 + k] for k in range(5)],
                          config.mc["eps"], **config.solver)
    fault = next((e for e in entries if isinstance(e, NonPositiveFactor)),
                 None)
    if fault is not None:
        return SuiteResult("jump_factor_positive", False, note=str(fault))
    b_vals = np.array([b for _, b, _, _ in entries])
    if not np.all(np.isfinite(b_vals)):
        return SuiteResult("jump_factor_positive", False,
                           details={"reason": "non-finite b values"})
    worst = float(np.min(b_vals))
    return SuiteResult("jump_factor_positive", worst > 0.0,
                       details={"min_b": worst})


def suite_strong_residual(config: RunConfig, seed: int) -> SuiteResult:
    """Inter-jump residual must shrink under grid refinement.

    Runs for every linear volatility, time-only or maturity-dependent:
    the time residual and the jump relation read lambda on the grid.
    Both grids solve the path of seed (seed, 2000): a path depends only
    on its seed and the horizon, so they see the same jumps.
    """
    maxima = []
    jump_err = 0.0
    for g in (config.grid, config.grid.refine(2)):
        path, _, _, report = solve_path(config.levy, config.volatility,
                                        config.curve, g, [seed, 2000],
                                        config.mc["eps"], **config.solver)
        if not report.converged:
            return SuiteResult("strong_residual", False,
                               details={"status": report.status})
        stats = strong_residual(report.final_field, config.volatility,
                                config.levy, path, g)
        maxima.append(stats.time_residual_max)
        jump_err = max(jump_err, stats.jump_relation_max_error)
    coarse, fine = maxima
    if math.isnan(coarse) or math.isnan(fine):
        return SuiteResult("strong_residual", False,
                           details={"reason": "no jump-free panels"})
    # a static field has residuals at rounding level on both grids
    if coarse < 1e-12:
        ratio = math.inf
    else:
        ratio = coarse / max(fine, 1e-300)
    ok = ratio >= 1.5 and jump_err < 1e-10
    return SuiteResult("strong_residual", ok,
                       details={"coarse_max": coarse, "fine_max": fine,
                                "ratio": ratio,
                                "jump_relation_max_error": jump_err})


def suite_two_start(config: RunConfig, seed: int) -> SuiteResult:
    """Restarting from twice the fixed point must land on the same field.

    The verdict is that of
    :func:`~hjmm.solver.uniqueness_contraction_check`; the Gronwall
    constant it reports takes the sup of the path's jump factor field.
    """
    _, b_vals, a_vals, first = solve_path(config.levy, config.volatility,
                                          config.curve, config.grid,
                                          [seed, 3000], config.mc["eps"],
                                          **config.solver)
    if not first.converged:
        return SuiteResult("two_start", False,
                           details={"status": first.status})
    doubled = RateField(2.0 * first.final_field.values, config.grid)
    second = solve_fixed_point(a_vals, config.volatility, config.levy,
                               config.grid, initial=doubled, **config.solver)
    if not second.converged:
        return SuiteResult("two_start", False,
                           details={"status": second.status})
    check = uniqueness_contraction_check(
        first.final_field, second.final_field, config.levy,
        config.volatility, config.grid, b_sup=float(b_vals.max()))
    return SuiteResult("two_start", check.passed,
                       details={"sup_distance": check.initial_sup,
                                "gronwall_constant": check.k_constant})


def run_all(config: RunConfig, seed: int = 0) -> VerificationReport:
    """Run every invariant suite on the configured model.

    A suite that raises UnsupportedSpec (no path simulator for the model)
    passes with the note "skipped: <reason>"; one that meets a jump factor
    1 + lambda*dL at or below zero (NonPositiveFactor) fails, the jump
    named in its note.
    """
    suites = []
    for name, suite, args in (
            ("monotone_iterates", suite_monotone_iterates, (config, seed)),
            ("norm_embeddings", suite_norm_embeddings, (config, seed)),
            ("exponent_monotone", suite_exponent_monotone, (config,)),
            ("jump_factor_positive", suite_jump_factor_positive,
             (config, seed)),
            ("strong_residual", suite_strong_residual, (config, seed)),
            ("two_start", suite_two_start, (config, seed))):
        try:
            suites.append(suite(*args))
        except UnsupportedSpec as exc:
            suites.append(SuiteResult(name, True, note=f"skipped: {exc}"))
        except NonPositiveFactor as exc:
            suites.append(SuiteResult(name, False, note=str(exc)))
    return VerificationReport(suites=suites)
