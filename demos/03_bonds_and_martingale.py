"""Bond prices from a solved field and the martingale cross-check.

Discounted bond prices D(t) P(t, T) must be constant in expectation
under the pricing measure.  The first part prices bonds off one solved
path and verifies the algebraic identities that the surface carries.
The second part runs a small Monte Carlo ensemble and reports the
z-scores of the discounted-price deviations at a grid of checkpoints.
A few hundred paths keep the run short; the acceptance suite runs the
same check with ten thousand.
"""

from hjmm import (GridSpec, bond_surface, constant_volatility,
                  drift_identity_check, exp_decay_curve, gamma_subordinator,
                  martingale_test)
from hjmm.paths import TRUNCATION_EPS
from hjmm.solver import solve_path


def main():
    grid = GridSpec(delta=1.0 / 32.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = gamma_subordinator(c=0.5, beta=2.0)
    vol = constant_volatility(0.2)
    curve = exp_decay_curve(0.08, 0.4)

    *_, report = solve_path(spec, vol, curve, grid, [2048, 0],
                            TRUNCATION_EPS, tol=1e-11)
    surface = bond_surface(report.final_field, grid)

    print("bond prices P(t, T) along one path:")
    print("  t \\ T     1.00      1.50      2.00")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        i = grid.index_of_time(t)
        row = [surface.prices[i, grid.index_of_maturity(T)]
               for T in (1.0, 1.5, 2.0)]
        print(f"  {t:4.2f}   " + "  ".join(f"{p:.6f}" for p in row))

    i = grid.index_of_time(0.5)
    j = grid.index_of_maturity(1.5)
    product = surface.discounted[i, i] * surface.prices[i, j]
    print(f"\ndiscount factorization at (t, T) = (0.5, 1.5): "
          f"D*P = {surface.discounted[i, j]:.12f}, "
          f"D(t) x P(t,T) = {product:.12f}")

    residual = drift_identity_check(spec, vol, report.final_field, grid,
                                    s=0.25, t=0.5, T=1.5)
    print(f"no-arbitrage drift identity residual at (0.25, 0.5, 1.5): "
          f"{residual:.3e}")

    print("\nmartingale check, 400 paths:")
    mc = martingale_test(spec, vol, curve, grid, n_paths=400, master_seed=7)
    for r in mc.results:
        tag = "degenerate" if r.degenerate else f"z = {r.z_score:+.3f}"
        print(f"  t = {r.t:.2f}  T = {r.T:.2f}   mean {r.mean_discounted:.8f}"
              f"   reference {r.reference:.8f}   {tag}")
    print(f"summary: max |z| = {mc.max_abs_z:.3f}, "
          f"mean |deviation| = {mc.mean_abs_deviation:.2e}, "
          f"excluded {mc.n_excluded}/{mc.n_paths}, "
          f"{'PASS' if mc.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
