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
through z-scores against the time-zero price.  The Monte Carlo cuts
the paths into the fewest consecutive blocks of at most BLOCK_CELLS
field cells, rounded up to a multiple of the worker count, so that
block sizes differ by at most one path and every worker gets the same
share; it solves each block with one :func:`~hjmm.solver.solve_paths`
call and prices the checkpoints of every converged path of a block at
once.  The blocks' rows come back in path order through one loop, from
the calling thread or from a pool of at most one thread per block and
per CPU.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .curves import InitialCurve
from .errors import DomainError, NonPositiveFactor, integer
from .grids import (GridSpec, RateField, _require_on_grid, below_diagonal,
                    cumtrapz, gap_integral)
from .levy import LevyModelSpec, exponent, fast_derivative
from .paths import TRUNCATION_EPS
from .solver import (STATUS_CONVERGED, STATUS_EXPLODED, STATUS_MAX_ITER,
                     STATUS_NONPOSITIVE, solve_paths)
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
    """Grid of bond prices derived from one forward-rate field.

    ``prices[i, j]`` is P(t_i, T_j) and ``discounted[i, j]`` is
    P_hat(t_i, T_j) at time node i and maturity node j.
    """

    prices: np.ndarray
    discounted: np.ndarray


def bond_surface(rate_field: RateField, grid: GridSpec) -> BondSurface:
    """Price surfaces from a finite nonnegative rate field.

    ``prices[i, j]`` is NaN for maturities before the observation time
    (j < i); ``discounted[i, j]`` is defined everywhere because the flat
    extension turns the discount factor into the same row integral.
    ``rate_field`` must be a RateField on ``grid`` (DomainError otherwise).
    """
    values = _require_on_grid(rate_field, grid, "rate_field").values
    # NaN fails both comparisons
    if not (np.min(values) >= 0.0 and np.max(values) < math.inf):
        raise DomainError("bond prices need a finite nonnegative rate field")
    # the row integrals, then P(t, T) in place of them
    prices = cumtrapz(values, grid.delta, axis=1)
    discounted = np.negative(prices, out=np.empty_like(prices))
    np.exp(discounted, out=discounted)
    np.subtract(prices, np.diagonal(prices).copy()[:, None], out=prices)
    np.exp(np.negative(prices, out=prices), out=prices)
    np.copyto(prices, np.nan, where=below_diagonal(values.shape))
    return BondSurface(prices=prices, discounted=discounted)


def _near_nodes(fractions, horizon: float, delta: float,
                index_of) -> tuple[float, ...]:
    """f * horizon for each fraction f where that is a node (``index_of``
    accepts it); else the nearest positive node that no other point
    takes, or no point once every positive node is taken."""
    points, taken = {}, set()
    for f in fractions:
        try:
            taken.add(index_of(f * horizon))
            points[f] = f * horizon
        except DomainError:
            pass
    for f in fractions:
        free = [n for n in range(1, round(horizon / delta) + 1)
                if n not in taken]
        if f not in points and free:
            k = min(free, key=lambda n: abs(n * delta - f * horizon))
            taken.add(k)
            points[f] = k * delta
    return tuple(sorted(points.values()))


def default_checkpoints(grid: GridSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Default checkpoint tensor: 0.25, 0.5 and 0.75 of the horizon and
    0.5, 0.75 and 1 of max maturity, each on a distinct grid node.

    A fraction keeps its value where that is a grid node and otherwise
    moves to the nearest positive node that no other checkpoint on its
    axis holds; it is dropped on a grid too coarse to leave one.
    """
    return (_near_nodes((0.25, 0.5, 0.75), grid.t_star, grid.delta,
                        grid.index_of_time),
            _near_nodes((0.5, 0.75, 1.0), grid.t_max, grid.delta,
                        grid.index_of_maturity))


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


# the causes for which martingale_test excludes a path
EXCLUSION_CAUSES = (STATUS_EXPLODED, STATUS_MAX_ITER, STATUS_NONPOSITIVE)

# Most field cells that one block of Monte Carlo paths stacks: 30 paths
# at delta = 1/32 (2145 cells each), 7 at 1/64 and 1 at 1/128 on the
# t_star = 1, t_max = 2 grid.  A block saves per-call overhead, which
# leads at 1/32 and fades as fields grow (at 1/128 a stack only adds
# memory); on two threads a block must also be big enough for numpy to
# drop the GIL in its prefix sums (see _rows).  Swept under the balanced
# cut on a 2-vCPU VM: paths/s of the benchmark's explosive (50 paths)
# and gamma (100 paths) models on one / two threads, medians of 25
# alternating martingale_test calls (15 at 1/64):
#
#  budget         2^14      2^15      3*2^14    2^16      3*2^15    2^17
#  1/32 explosive 575/356   591/515   607/523   571/686   647/682   599/561
#  1/32 gamma     2562/1416 2003/2082 2665/2347 2801/2531 2631/2560 2191/2860
#  1/64 explosive           204/174   210/263   218/268   208/303   200/318
#  1/64 gamma               1023/704  878/990   884/1014  775/1183  883/1256
#
# One-thread figures spread by 20-30% between quartiles, so the budgets
# from 2^15 to 3*2^15 tie on one thread; on two, 2^16 is the least that
# cuts the explosive run at 1/32 into two blocks of 25.  At 1/64 larger
# budgets still gain on two threads, as a 7-path block has 455 maturity
# lanes, under numpy's 500.
BLOCK_CELLS = 1 << 16


@dataclass
class MartingaleReport:
    """Aggregate of the per-path discounted prices at every checkpoint.

    ``excluded_by_cause`` counts the excluded paths by cause, one entry
    per name in EXCLUSION_CAUSES; ``n_excluded`` is their sum.
    """

    results: list
    n_paths: int
    n_excluded: int
    master_seed: int
    valid: bool
    notes: str = ""
    excluded_by_cause: dict = field(default_factory=dict)

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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows(rows, n_paths: int, threads: int, cells: int):
    """``rows(block)`` for consecutive blocks of paths, in the calling
    thread or on a pool of at most one thread per block and per CPU;
    yields each path's outcome in path order.

    The blocks are the fewest of at most ``max(1, BLOCK_CELLS // cells)``
    paths, their count rounded up to a multiple of the worker count (but
    to no more than one block per path), and block i starts at path
    ``i * n_paths // count``: sizes differ by at most one path, so every
    worker gets the same share."""
    count = -(-n_paths // max(1, BLOCK_CELLS // cells))
    workers = min(threads, count, _cpu_count())
    count = min(-(-count // workers) * workers, n_paths)
    cuts = [i * n_paths // count for i in range(count + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if workers <= 1:
        # in the calling thread, where a profiler sees the whole run
        for block in blocks:
            yield from rows(block)
        return
    # numpy 2.4 drops the GIL in a prefix sum only over at least 500
    # lanes: the maturity sum of a 15-path stack at delta = 1/32 has 495
    # and holds it, one of 25 paths has 825.  On a 2-vCPU VM the
    # explosive benchmark model ran 50 paths at delta = 1/32 at 747
    # paths/s on two threads against 648 on one, in two blocks of 25
    # (medians of 61 alternating calls); cut 15, 15, 15 and 5, it ran at
    # 529 against 545
    with ThreadPoolExecutor(workers) as pool:
        for block_rows in pool.map(rows, blocks):
            yield from block_rows


def martingale_test(spec: LevyModelSpec, vol: VolatilitySpec,
                    curve: InitialCurve, grid: GridSpec, *,
                    n_paths: int, master_seed: int, eps: float = TRUNCATION_EPS,
                    t_checkpoints=None, T_checkpoints=None,
                    threads: int = 1, **solver) -> MartingaleReport:
    """Monte Carlo check that discounted bond prices are constant in mean.

    Path i runs the pipeline of :func:`solve_paths` with the seed
    (master_seed, i); ``solver`` holds the fixed-point keywords of
    :func:`~hjmm.solver.solve_fixed_point` (``tol``, ``max_iter``,
    ``explosion_threshold``), whose defaults the solver sets.  Blocks of
    consecutive paths, of at most BLOCK_CELLS field cells each, are solved
    stacked, in the calling thread or on ``threads`` >= 1 worker threads
    (at most one per block and per CPU); the paths are cut into the
    fewest such blocks, rounded up to a multiple of the worker count
    (while a block keeps at least one path), of sizes that differ by at
    most one.  A path's outcome is bitwise the same in any block, so
    results are identical for any worker count.  The reference price P(0,T)
    integrates the initial curve exactly for the built-in curve families
    and by adaptive quadrature for a curve built from a bare callable, so
    the deviations carry the grid's own discretization bias and must
    shrink under refinement.  A path whose solve explodes or reaches
    ``max_iter``, or whose jump factor turns non-positive, is excluded
    and counted by cause; more than 1% exclusions invalidates the test.
    Checkpoints must be grid nodes, at least one time and one maturity.
    ``n_paths`` and ``threads`` must be positive integers and
    ``master_seed`` a nonnegative one (Python or numpy).
    """
    for name, value, least in (("n_paths", n_paths, 1), ("threads", threads, 1),
                               ("master_seed", master_seed, 0)):
        integer(name, value, least)
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

    def rows(block: range) -> list:
        """Per path of the block: its checkpoint row, or its exclusion cause."""
        entries = solve_paths(
            spec, vol, curve, grid, [[master_seed, i] for i in block], eps,
            **solver)
        outcomes = [STATUS_NONPOSITIVE if isinstance(entry, NonPositiveFactor)
                    else entry[3].status for entry in entries]
        converged = [k for k, status in enumerate(outcomes)
                     if status == STATUS_CONVERGED]
        if converged:
            # the discounted prices of bond_surface, on the checkpoint
            # cells of every converged path at once
            fields = np.stack([entries[k][3].final_field.values[t_idx]
                               for k in converged])
            prices = np.exp(-cumtrapz(fields, grid.delta, axis=-1)[..., T_idx])
            for k, row in zip(converged, prices.reshape(len(converged), -1)):
                outcomes[k] = row
        return outcomes

    kept_rows = []
    by_cause = dict.fromkeys(EXCLUSION_CAUSES, 0)
    for outcome in _rows(rows, n_paths, threads, math.prod(grid.shape)):
        if isinstance(outcome, str):
            by_cause[outcome] += 1
        else:
            kept_rows.append(outcome)
    excluded = sum(by_cause.values())
    n_kept = len(kept_rows)
    kept = np.array(kept_rows, dtype=float).reshape(
        n_kept, len(t_pts) * len(T_pts))

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
                            valid=valid, notes=notes,
                            excluded_by_cause=by_cause)


def _reference_prices(curve: InitialCurve, grid: GridSpec,
                      T_idx: np.ndarray) -> np.ndarray:
    # exact, or adaptive quadrature: the reference carries no grid bias
    T_vals = grid.T_nodes()[T_idx]
    if curve.integral is not None:
        integrals = [float(v) for v in curve.integral(T_vals)]
    else:
        from scipy import integrate
        integrals = [integrate.quad(lambda u: float(curve(u)), 0.0, T_val,
                                    epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                     for T_val in T_vals]
    return np.array([math.exp(-v) for v in integrals])


def drift_identity_check(spec: LevyModelSpec, vol: VolatilitySpec,
                         rate_field: RateField, grid: GridSpec,
                         s: float, t: float, T: float) -> float:
    """Residual of the no-arbitrage drift identity at one checkpoint.

    With sigma(s, u) = lambda(s, u) f(s, u) taken from the solved field,
    compares the integrated differential form

        int_t^T J'(int_s^u sigma(s, v) dv) sigma(s, u) du

    with the antiderivative form J(int_s^T sigma) - J(int_s^t sigma).
    sigma is ``vol.on_grid(grid)`` times the field and the inner integral
    is row s of its :func:`~hjmm.grids.gap_integral`, as in the solver's
    operator.  J' comes from the vectorized :func:`fast_derivative` on all
    maturity nodes at once and J from the adaptive-quadrature
    :func:`exponent`; the discrepancy is pure maturity-grid
    discretization, O(delta^2).  ``rate_field`` must be a RateField on
    ``grid`` (DomainError otherwise).
    """
    _require_on_grid(rate_field, grid, "rate_field")
    if not (0.0 <= s <= t <= T <= grid.t_max):
        raise DomainError("need 0 <= s <= t <= T <= t_max")
    if s > grid.t_star:
        raise DomainError("s must lie in the solver time range")
    i_s = grid.index_of_time(s)
    j_t = grid.index_of_maturity(t)
    j_T = grid.index_of_maturity(T)
    sigma = vol.on_grid(grid) * rate_field.values
    inner = gap_integral(sigma, grid.delta)[i_s]

    cols = slice(j_t, j_T + 1)
    dj_vals = fast_derivative(spec, 1)(inner[cols])
    left = float(np.trapezoid(dj_vals * sigma[i_s, cols], dx=grid.delta))
    right = exponent(spec, inner[j_T]) - exponent(spec, inner[j_t])
    return abs(left - right)
