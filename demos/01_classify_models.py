"""Classify jump-driver specifications into growth regimes.

The classifier looks at the Laplace exponent J of the driving process.
Models whose J' grows slowly enough admit forward-rate solutions on the
whole horizon; models with a Gaussian part, negative jumps, or a heavy
small-jump tail force the iteration out of the weighted state space.
This script builds one model per regime and prints the verdicts along
with the exponent values that drive them.
"""

import math

import numpy as np

from hjmm import (LevyModelSpec, PointMasses, StableLike, check_assumptions,
                  classify_growth, constant_volatility, exponent,
                  exponent_derivative, gamma_subordinator, log_growth_profile)


def show(label, spec, lambda_bar=1.0, t_star=1.0):
    result = classify_growth(spec, lambda_bar, t_star)
    rho = "-" if result.rho is None else f"{result.rho:.2f}"
    print(f"  {label:<34} {result.verdict.value:<20} "
          f"rule={result.rule_fired.value:<24} rho={rho}")
    return result


def main():
    print("growth regime classification (lambda_bar = 1, horizon = 1)")
    print()

    gamma = gamma_subordinator(c=0.5, beta=2.0)
    show("gamma subordinator", gamma)

    heavy = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                          measure=StableLike(c=1.0, alpha=0.5, y_max=1.0))
    show("stable-like, alpha = 0.5", heavy)

    light = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                          measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
    show("stable-like, alpha = 1.5", light)

    gaussian = LevyModelSpec(drift_a=0.0, gaussian_q=1.0,
                             measure=PointMasses(()))
    show("Brownian component present", gaussian)

    negative = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                             measure=PointMasses(((-0.5, 1.0),)))
    show("negative jumps in (-1, 0)", negative)

    print()
    print("Laplace exponent of the gamma subordinator, J(z) = -0.5 ln(1 + z/2):")
    for z in (0.5, 2.0, 10.0):
        j = exponent(gamma, z)
        j1 = exponent_derivative(gamma, z, 1)
        closed = -0.5 * math.log1p(z / 2.0)
        print(f"  z = {z:5.2f}   J = {j:+.10f}   closed form {closed:+.10f}"
              f"   J' = {j1:+.6f}")

    print()
    print("log-growth gap ln(z) - lambda_bar T* J'(z) along z (existence"
          " needs it unbounded):")
    z_grid = np.geomspace(1.0, 1e6, 7)
    gap = log_growth_profile(gamma, 1.0, 1.0, z_grid)
    for zi, gi in zip(z_grid, gap):
        print(f"  z = {zi:10.1f}   gap = {gi:8.4f}")

    print()
    report = check_assumptions(gamma, constant_volatility(0.2))
    print(f"standing assumptions for the gamma model with constant"
          f" volatility 0.2: {'all hold' if report.ok else 'violated'}")
    print(f"  support infimum {report.support_infimum:+.2f} vs threshold"
          f" {report.a2_threshold:+.2f}: {'ok' if report.a2_pass else 'FAIL'}")
    print("  volatility bounds (A3): hold, checked when the VolatilitySpec"
          " is built")
    print(f"  integrability (square near zero {report.a4_square_integral:.4f},"
          f" tail mean {report.a4_tail_integral:.4f}): "
          f"{'ok' if report.a4_pass else 'FAIL'}")
    print(f"  second moment {report.second_moment:.4f} "
          f"(finite: {report.second_moment_finite})")


if __name__ == "__main__":
    main()
