"""Bond prices, discounted prices and no-arbitrage diagnostics.

Prices come from the solved forward-rate field by trapezoid integration
in the maturity variable:

    P(t, T)    = exp(-int_t^T f(t, u) du),        T >= t,
    P_hat(t,T) = exp(-int_0^t r(s) ds) * P(t, T)
               = exp(-int_0^T f(t, u) du),

where the second equality uses the flat extension f(t, u) = f(u, u) for
u <= t.  On the grid the two P_hat routes sum the same trapezoid panels,
so they agree to rounding; the discounted price should be a martingale
in t under the risk-neutral dynamics, which the Monte Carlo test checks
through z-scores against the time-zero price.  Each Monte Carlo path is
one :func:`~hjmm.solver.solve_path` call followed by a bond surface; the
checkpoint rows come back through one loop, from the calling process or
from a fork pool.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .curves import InitialCurve
from .errors import DomainError, NonPositiveFactor
from .grids import GridSpec, RateField, below_diagonal, cumtrapz
from .levy import LevyModelSpec, exponent, fast_derivative
from .solver import solve_path
from .volatility import VolatilitySpec

__all__ = [
    "BondSurface",
    "bond_surface",
    "CheckpointResult",
    "MartingaleReport",
    "martingale_test",
    "default_checkpoints",
    "drift_identity_check",
]


@dataclass(eq=False)
class BondSurface:
    """Grid of bond prices derived from one forward-rate field."""

    prices: np.ndarray
    discounted: np.ndarray
    short_rates: np.ndarray
    grid: GridSpec

    def price(self, t: float, T: float) -> float:
        i = self.grid.index_of_time(t)
        j = self.grid.index_of_maturity(T)
        return float(self.prices[i, j])

    def discounted_price(self, t: float, T: float) -> float:
        i = self.grid.index_of_time(t)
        j = self.grid.index_of_maturity(T)
        return float(self.discounted[i, j])


def bond_surface(rate_field: RateField, grid: GridSpec) -> BondSurface:
    """Price surfaces from a nonnegative rate field.

    ``prices[i, j]`` is NaN for maturities before the observation time
    (j < i); ``discounted[i, j]`` is defined everywhere because the flat
    extension turns the discount factor into the same row integral.
    """
    if rate_field.grid != grid:
        raise DomainError("field and grid do not match")
    values = rate_field.values
    if np.min(values) < 0.0:
        raise DomainError("bond prices need a nonnegative rate field")
    ct = cumtrapz(values, grid.delta, axis=1)
    discounted = np.exp(-ct)
    prices = np.exp(-(ct - np.diagonal(ct)[:, None]))
    prices[below_diagonal(values.shape)[:2]] = np.nan
    return BondSurface(prices=prices, discounted=discounted,
                       short_rates=rate_field.short_rates(), grid=grid)


def default_checkpoints(grid: GridSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Default checkpoint tensor: fractions of the horizon and of max maturity."""
    t_points = tuple(f * grid.t_star for f in (0.25, 0.5, 0.75))
    T_points = tuple(f * grid.t_max for f in (0.5, 0.75, 1.0))
    return t_points, T_points


@dataclass
class CheckpointResult:
    t: float
    T: float
    mean_discounted: float
    reference: float
    deviation: float
    std: float
    z_score: float
    degenerate: bool = False


@dataclass
class MartingaleReport:
    """Aggregate of the per-path discounted prices at every checkpoint."""

    results: list
    n_paths: int
    n_excluded: int
    master_seed: int
    valid: bool
    notes: str = ""

    @property
    def max_abs_z(self) -> float:
        finite = [abs(r.z_score) for r in self.results if math.isfinite(r.z_score)]
        return max(finite) if finite else math.nan

    @property
    def mean_abs_deviation(self) -> float:
        return float(np.mean([abs(r.deviation) for r in self.results]))

    @property
    def passed(self) -> bool:
        if not self.valid:
            return False
        if any(math.isnan(r.z_score) for r in self.results):
            return False
        return all(abs(r.z_score) <= 4.0 for r in self.results)


# The run's checkpoint-row function in a pool worker, set by the pool's
# initializer.
_worker_row = None


def _set_worker_row(row) -> None:
    global _worker_row
    _worker_row = row


def _pooled_row(path_index: int):
    return _worker_row(path_index)


def _rows(row, n_paths: int, threads: int):
    """``row(i)`` for every path index i, serially or from a pool.

    Pool results arrive in any order; each carries its path index.
    """
    workers = min(threads, n_paths)
    if workers <= 1:
        yield from map(row, range(n_paths))
        return
    # the fork start method hands ``row`` to the workers without pickling
    # closures such as a user density
    with multiprocessing.get_context("fork").Pool(
            processes=workers, initializer=_set_worker_row,
            initargs=(row,)) as pool:
        yield from pool.imap_unordered(_pooled_row, range(n_paths),
                                       max(1, n_paths // (workers * 8)))


def martingale_test(spec: LevyModelSpec, vol: VolatilitySpec,
                    curve: InitialCurve, grid: GridSpec, *,
                    n_paths: int, master_seed: int, eps: float = 1e-3,
                    t_checkpoints=None, T_checkpoints=None,
                    tol: float = 1e-9, max_iter: int = 200,
                    explosion_threshold: float = 1e8,
                    threads: int = 1) -> MartingaleReport:
    """Monte Carlo check that discounted bond prices are constant in mean.

    Path i runs :func:`solve_path` with the seed (master_seed, i), so
    results are identical for any worker count; ``threads`` >= 1 asks for
    that many worker processes, at most one per path.  The reference price
    P(0,T) integrates the initial curve by adaptive quadrature, so the
    deviations carry the grid's own discretization bias and must shrink
    under refinement.  A path whose solve does not converge, or whose jump
    factor turns non-positive, is excluded; more than 1% exclusions
    invalidates the test.  Checkpoints must be grid nodes, at least one
    time and one maturity.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    if threads < 1:
        raise DomainError("threads must be at least 1")
    t_pts, T_pts = default_checkpoints(grid)
    if t_checkpoints is not None:
        t_pts = tuple(float(v) for v in t_checkpoints)
    if T_checkpoints is not None:
        T_pts = tuple(float(v) for v in T_checkpoints)
    if not t_pts or not T_pts:
        raise DomainError("need at least one checkpoint time and maturity")
    t_idx = np.array([grid.index_of_time(v) for v in t_pts], dtype=int)
    T_idx = np.array([grid.index_of_maturity(v) for v in T_pts], dtype=int)
    master_seed, eps = int(master_seed), float(eps)

    def row(path_index: int):
        try:
            *_, report = solve_path(
                spec, vol, curve, grid, [master_seed, path_index], eps,
                tol=tol, max_iter=max_iter,
                explosion_threshold=explosion_threshold)
        except NonPositiveFactor:
            return path_index, None
        if not report.converged:
            return path_index, None
        surface = bond_surface(report.final_field, grid)
        return path_index, surface.discounted[np.ix_(t_idx, T_idx)].ravel()

    # the rows of the kept paths, stacked in path-index order
    kept_rows = {}
    excluded = 0
    for idx, values in _rows(row, n_paths, threads):
        if values is None:
            excluded += 1
        else:
            kept_rows[idx] = values
    n_kept = len(kept_rows)
    kept = np.array([kept_rows[i] for i in sorted(kept_rows)],
                    dtype=float).reshape(n_kept, len(t_pts) * len(T_pts))

    reference = _reference_prices(curve, grid, T_idx)
    valid = excluded <= 0.01 * n_paths
    notes = ""
    if excluded:
        notes = f"{excluded} of {n_paths} paths excluded"

    results = []
    for pos, (t_val, T_val) in enumerate(itertools.product(t_pts, T_pts)):
        ref = reference[pos % len(T_pts)]
        col = kept[:, pos]
        mean = float(np.mean(col)) if n_kept else math.nan
        std = float(np.std(col, ddof=1)) if n_kept >= 2 else math.nan
        dev = mean - ref
        degenerate = not (n_kept >= 2 and std > 0.0)
        if degenerate:
            # deterministic samples: quadrature-size deviations count as
            # zero, anything larger is unexplained
            quad_tol = 100.0 * grid.delta ** 2 * max(abs(ref), 1.0)
            z = 0.0 if abs(dev) <= quad_tol else math.nan
        else:
            z = dev / (std / math.sqrt(n_kept))
        results.append(CheckpointResult(
            t=t_val, T=T_val, mean_discounted=mean, reference=ref,
            deviation=dev, std=std, z_score=z, degenerate=degenerate))
    if n_kept < 2:
        valid = False
        notes = (notes + "; " if notes else "") + "fewer than 2 valid paths"
    return MartingaleReport(results=results, n_paths=n_paths,
                            n_excluded=excluded, master_seed=master_seed,
                            valid=valid, notes=notes)


def _reference_prices(curve: InitialCurve, grid: GridSpec,
                      T_idx: np.ndarray) -> np.ndarray:
    # adaptive quadrature so the reference carries no grid bias of its own
    out = np.empty(T_idx.size)
    for k, j in enumerate(T_idx):
        T_val = grid.T_nodes()[j]
        integral, _ = integrate.quad(lambda u: float(curve(u)), 0.0, T_val,
                                     epsabs=1e-13, epsrel=1e-12, limit=200)
        out[k] = math.exp(-integral)
    return out


def drift_identity_check(spec: LevyModelSpec, vol: VolatilitySpec,
                         rate_field: RateField, grid: GridSpec,
                         s: float, t: float, T: float) -> float:
    """Residual of the no-arbitrage drift identity at one checkpoint.

    With sigma(s, u) = lambda(s, u) f(s, u) taken from the solved field,
    compares the integrated differential form

        int_t^T J'(int_s^u sigma(s, v) dv) sigma(s, u) du

    with the antiderivative form J(int_s^T sigma) - J(int_s^t sigma).
    J' comes from the vectorized :func:`fast_derivative` on all maturity
    nodes at once and J from the adaptive-quadrature :func:`exponent`; the
    discrepancy is pure maturity-grid discretization, O(delta^2).
    """
    if not (0.0 <= s <= t <= T <= grid.t_max):
        raise DomainError("need 0 <= s <= t <= T <= t_max")
    if s > grid.t_star:
        raise DomainError("s must lie in the solver time range")
    i_s = grid.index_of_time(s)
    j_t = grid.index_of_maturity(t)
    j_T = grid.index_of_maturity(T)
    if j_t < i_s:
        raise DomainError("t must not precede s")
    T_nodes = grid.T_nodes()
    lam_row = np.asarray(vol.standard(grid.t_nodes()[i_s], T_nodes), dtype=float)
    sigma = lam_row * rate_field.values[i_s]
    ct = cumtrapz(sigma, grid.delta, axis=0)
    inner = np.maximum(ct - ct[i_s], 0.0)

    cols = slice(j_t, j_T + 1)
    dj_vals = fast_derivative(spec, 1)(inner[cols])
    left = float(np.trapezoid(dj_vals * sigma[cols], dx=grid.delta))
    right = exponent(spec, inner[j_T]) - exponent(spec, inner[j_t])
    return abs(left - right)
