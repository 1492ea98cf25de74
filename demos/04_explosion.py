"""Watch the iteration diverge in the explosion regime.

A stable-like measure with tail index alpha = 1.5 makes J' grow like a
power of z, so the fixed-point operator has no bounded invariant set
once the curve level is large.  Started from a high flat curve, the
weighted norm of the iterates blows past any threshold within a few
steps.  The same model at a modest curve level still solves: explosion
is a property of the trajectory, not of the measure alone.
"""

from hjmm import (GridSpec, LevyModelSpec, StableLike, classify_growth,
                  constant_curve, constant_volatility)
from hjmm.solver import solve_path


def run(level, seed):
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                         measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
    vol = constant_volatility(0.25)
    return solve_path(spec, vol, constant_curve(level), grid, seed, 1e-2,
                      tol=1e-9, max_iter=50, explosion_threshold=1e6)[-1]


def main():
    spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                         measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
    verdict = classify_growth(spec, lambda_bar=0.25, t_star=1.0)
    print(f"classifier verdict: {verdict.verdict.value} "
          f"(rule {verdict.rule_fired.value}, rho = {verdict.rho})")
    print()

    report = run(level=100.0, seed=[900, 0])
    print(f"flat curve at 100: {report.status} after {report.iterations} "
          f"iterations; weighted norm trace:")
    for n, w in enumerate(report.norm_trace, start=1):
        print(f"  n={n}   {w:.6e}")
    print()

    report = run(level=0.05, seed=[900, 0])
    print(f"flat curve at 0.05: {report.status} after {report.iterations} "
          f"iterations, final norm {report.norm_trace[-1]:.6f}")
    print()
    print("the divergence threshold depends on the curve scale; the")
    print("classifier only rules out solutions for some initial data.")


if __name__ == "__main__":
    main()
