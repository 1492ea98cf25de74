"""Simulate a jump path and solve the forward-rate fixed point.

One gamma-subordinator path drives the rates.  The solver iterates the
integral operator from zero; iterates increase monotonically and the
trace below shows the sup-norm gap collapsing.  The solved field is then
inspected in both parametrizations and checked against the strong form
of the dynamics.
"""

from hjmm import (GridSpec, RateField, apriori_bound, exp_decay_curve,
                  gamma_subordinator, strong_residual, time_affine_volatility,
                  weighted_norms)
from hjmm.paths import TRUNCATION_EPS
from hjmm.solver import solve_path


def main():
    grid = GridSpec(delta=1.0 / 32.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = gamma_subordinator(c=0.5, beta=2.0)
    vol = time_affine_volatility(0.2, 0.1, grid.t_star)
    curve = exp_decay_curve(0.08, 0.4)

    path, b, a, report = solve_path(spec, vol, curve, grid, [2048, 0],
                                    TRUNCATION_EPS, tol=1e-11)
    print(f"driver path: {path.times.size} jumps, drift rate "
          f"{path.drift_rate:+.6f}, largest jump "
          f"{path.sizes.max() if path.sizes.size else 0.0:.4f}")
    print(f"solver: {report.status} after {report.iterations} iterations")
    # b = 1 at t = 0, so row 0 of a = f0 * b is f0 on the maturity nodes
    r0_norm = weighted_norms(RateField(a, grid), grid, 0.0).l2_gamma
    c1_bound = apriori_bound(spec, vol, grid, r0_norm, float(b.max()))
    if c1_bound is not None:
        print(f"a-priori norm bound: {c1_bound:.4f}")
    print()

    print("iteration trace (sup difference, min increment, weighted norm):")
    for n, (d, m, w) in enumerate(zip(report.sup_diffs,
                                      report.increment_mins,
                                      report.norm_trace), start=1):
        print(f"  n={n:2d}   sup diff {d:10.3e}   min increment {m:+.1e}"
              f"   norm {w:.6f}")

    field = report.final_field
    print()
    print("short rate r(t, 0) along the timeline:")
    rates = field.short_rates()
    for i in range(0, grid.n_t + 1, 8):
        print(f"  t = {grid.t_nodes()[i]:.3f}   r = {rates[i]:.6f}")

    print()
    print("curve slice at t = 0.5 (time-to-maturity coordinates):")
    i = grid.index_of_time(0.5)
    xs = field.x_nodes(i)
    slice_vals = field.musiela_slice(i)
    for k in range(0, xs.size, 12):
        print(f"  x = {xs[k]:.3f}   r = {slice_vals[k]:.6f}")
    norms = weighted_norms(field, grid, 0.5)
    print(f"  weighted norms: L2 {norms.l2_gamma:.6f}, "
          f"H1 {norms.h1_gamma:.6f}, sup {norms.sup:.6f}")

    print()
    res = strong_residual(field, vol, spec, path, grid)
    print(f"strong-form residual: max {res.time_residual_max:.3e}, "
          f"mean {res.time_residual_mean:.3e} over {res.panels_checked} "
          f"panels; jump relation error {res.jump_relation_max_error:.2e}")


if __name__ == "__main__":
    main()
