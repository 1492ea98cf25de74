"""Bond surfaces, the discounted-price identity, and the martingale check."""

import functools
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from hjmm import market, measures
from hjmm.curves import affine_curve, constant_curve, exp_decay_curve
from hjmm.errors import DomainError
from hjmm.grids import GridSpec, RateField, cumtrapz, flat_extend
from hjmm.levy import (LevyModelSpec, drift_only, exponent, fast_derivative,
                       gamma_subordinator)
from hjmm.market import (
    bond_surface,
    default_checkpoints,
    drift_identity_check,
    martingale_test,
)
from hjmm.measures import StableLike, UserDensity
from hjmm.paths import field_a, field_b, simulate_path
from hjmm.solver import solve_fixed_point
from hjmm.volatility import (VolatilitySpec, constant_term,
                             constant_volatility, exp_decay_term,
                             time_affine_volatility)

PRODUCT_IDENTITY_RTOL = 1e-12


def _grid(delta=1.0 / 16.0) -> GridSpec:
    return GridSpec(delta, 1.0, 2.0, 1.0)


def _paths_per_block(monkeypatch, paths: int, grid: GridSpec) -> None:
    """Blocks of ``paths`` paths on ``grid``, so that a small run has
    several blocks and a pool to start."""
    monkeypatch.setattr(market, "BLOCK_CELLS", paths * math.prod(grid.shape))


def _block_threads(monkeypatch) -> set:
    """The idents of the threads that solve a block from now on."""
    solve_paths, threads = market.solve_paths, set()

    def recording_solve_paths(*args, **kwargs):
        threads.add(threading.get_ident())
        return solve_paths(*args, **kwargs)

    monkeypatch.setattr(market, "solve_paths", recording_solve_paths)
    return threads


def _solved_field(grid: GridSpec, seed=(21, 0)) -> RateField:
    spec = gamma_subordinator(0.5, 2.0)
    vol = constant_volatility(0.2)
    path = simulate_path(spec, grid.t_star, list(seed), eps=1e-3)
    a = field_a(exp_decay_curve(0.08, 0.4), field_b(vol, path, grid), grid)
    report = solve_fixed_point(a, vol, spec, grid, tol=1e-11)
    assert report.converged
    return report.final_field


class TestBondSurface:
    def test_zero_field_gives_unit_prices(self) -> None:
        grid = _grid()
        field = RateField(np.zeros((grid.n_t + 1, grid.n_cols + 1)), grid)
        surf = bond_surface(field, grid)
        valid = ~np.isnan(surf.prices)
        assert np.all(surf.prices[valid] == 1.0)
        assert np.all(surf.discounted == 1.0)

    def test_constant_field_closed_form(self) -> None:
        grid = _grid()
        r0 = 0.05
        field = RateField(np.full((grid.n_t + 1, grid.n_cols + 1), r0), grid)
        surf = bond_surface(field, grid)
        t, T = 0.5, 1.5
        assert surf.price(t, T) == pytest.approx(math.exp(-r0 * (T - t)),
                                                 rel=1e-13)
        assert surf.discounted_price(t, T) == pytest.approx(
            math.exp(-r0 * T), rel=1e-13)

    def test_drift_only_initial_price_closed_form(self) -> None:
        # r0(u) = 1 + u: P(0, T) = exp(-T - T^2/2), exact under trapezoid
        grid = _grid()
        spec = drift_only(2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, 0)
        a = field_a(affine_curve(1.0, 1.0), field_b(vol, path, grid), grid)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        surf = bond_surface(report.final_field, grid)
        for T in (0.5, 1.0, 2.0):
            expected = math.exp(-T - T * T / 2.0)
            assert surf.price(0.0, T) == pytest.approx(expected, rel=1e-12)

    def test_prices_unit_on_diagonal_and_nan_before(self) -> None:
        grid = _grid()
        field = _solved_field(grid)
        surf = bond_surface(field, grid)
        for i in range(grid.n_t + 1):
            assert surf.prices[i, i] == 1.0
        assert np.all(np.isnan(surf.prices[2, :2]))

    def test_prices_in_unit_interval_for_nonnegative_rates(self) -> None:
        grid = _grid()
        surf = bond_surface(_solved_field(grid), grid)
        valid = ~np.isnan(surf.prices)
        assert np.all(surf.prices[valid] > 0.0)
        assert np.all(surf.prices[valid] <= 1.0)

    def test_discounted_equals_product_form_exactly(self) -> None:
        # flat extension makes the single row integral and the
        # discount-factor product the same trapezoid sum
        grid = _grid()
        surf = bond_surface(_solved_field(grid), grid)
        for i in range(grid.n_t + 1):
            for j in range(i, grid.n_cols + 1):
                product = surf.discounted[i, i] * surf.prices[i, j]
                assert surf.discounted[i, j] == pytest.approx(
                    product, rel=PRODUCT_IDENTITY_RTOL)

    def test_discounted_at_time_zero_is_price(self) -> None:
        grid = _grid()
        surf = bond_surface(_solved_field(grid), grid)
        np.testing.assert_allclose(surf.discounted[0], surf.prices[0],
                                   rtol=1e-14)

    def test_short_rates_follow_diagonal(self) -> None:
        grid = _grid()
        field = _solved_field(grid)
        surf = bond_surface(field, grid)
        np.testing.assert_array_equal(surf.short_rates, field.short_rates())

    def test_negative_field_rejected(self) -> None:
        grid = _grid()
        vals = np.zeros((grid.n_t + 1, grid.n_cols + 1))
        vals[0, 3] = -0.01
        with pytest.raises(DomainError):
            bond_surface(RateField(flat_extend(vals), grid), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, bad) -> None:
        grid = GridSpec(0.25, 1.0, 2.0, 1.0)
        vals = np.full(grid.shape, 0.05)
        vals[1, 4] = bad
        with pytest.raises(DomainError, match="finite nonnegative"):
            bond_surface(RateField(flat_extend(vals), grid), grid)


def test_default_checkpoints_inside_grid() -> None:
    grid = _grid()
    t_pts, T_pts = default_checkpoints(grid)
    assert t_pts == (0.25, 0.5, 0.75)
    assert T_pts == (1.0, 1.5, 2.0)


def test_default_checkpoints_are_distinct_nodes_of_a_tenth_grid() -> None:
    # 0.25 and 0.75 of t_star fall between nodes of delta = 0.1; they move
    # to the nearest nodes, and the fractions that are nodes keep their value
    grid = _grid(0.1)
    t_pts, T_pts = default_checkpoints(grid)
    t_idx = [grid.index_of_time(t) for t in t_pts]
    # 2.5 and 7.5 steps: either neighbour is nearest
    assert t_idx[0] in (2, 3) and t_idx[2] in (7, 8)
    assert t_idx[1] == 5 and t_pts[1] == 0.5
    assert T_pts == (1.0, 1.5, 2.0)
    report = martingale_test(drift_only(1.0), constant_volatility(0.2),
                             affine_curve(1.0, 1.0), grid, n_paths=4,
                             master_seed=5)
    assert [r.t for r in report.results][::3] == list(t_pts)


class TestMartingale:
    def test_deterministic_model_all_z_scores_zero(self) -> None:
        # drift-only prices are exact up to quadrature error; the
        # degenerate rule maps them to z = 0
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        report = martingale_test(spec, vol, affine_curve(1.0, 1.0), grid,
                                 n_paths=16, master_seed=5)
        assert report.valid
        assert report.n_excluded == 0
        assert all(r.z_score == 0.0 for r in report.results)
        assert all(r.degenerate for r in report.results)
        assert report.passed

    def test_single_path_is_invalid(self) -> None:
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        report = martingale_test(spec, vol, affine_curve(1.0, 1.0), grid,
                                 n_paths=1, master_seed=5)
        assert not report.valid
        assert not report.passed

    def test_jump_model_small_sample(self) -> None:
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        report = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=64, master_seed=99)
        assert report.valid
        assert report.n_excluded == 0
        assert len(report.results) == 9
        # 64 paths is noisy; only sanity-check the magnitude
        assert report.max_abs_z < 6.0

    def test_same_seed_reproduces_results(self) -> None:
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        kwargs = dict(n_paths=24, master_seed=7)
        r1 = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                             **kwargs)
        r2 = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                             **kwargs)
        for a, b in zip(r1.results, r2.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.z_score == b.z_score

    def test_worker_count_does_not_change_results(self, monkeypatch) -> None:
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        _paths_per_block(monkeypatch, 5, grid)
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        serial = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=24, master_seed=7, threads=1)
        forked = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=24, master_seed=7, threads=2)
        for a, b in zip(serial.results, forked.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.std == b.std

    def test_worker_count_keeps_partial_exclusions(self, monkeypatch) -> None:
        # a stable-like driver in the explosion regime: with f0 = 26 some,
        # but not all, of the 24 paths explode and are excluded
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        _paths_per_block(monkeypatch, 5, grid)
        spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                             measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
        kwargs = dict(n_paths=24, master_seed=7, eps=1e-2, max_iter=50,
                      explosion_threshold=1e6)
        serial, forked = (
            martingale_test(spec, constant_volatility(0.25),
                            constant_curve(26.0), grid, threads=threads,
                            **kwargs)
            for threads in (1, 2))
        assert 0 < serial.n_excluded < 24
        assert forked.n_excluded == serial.n_excluded
        assert not serial.valid
        for a, b in zip(serial.results, forked.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.std == b.std

    def test_outcomes_by_cause_do_not_depend_on_blocks_or_workers(
            self, monkeypatch) -> None:
        # a stable-like driver at f0 = 26 with a volatility that dips below
        # zero near T = 0 (its declared bounds are not checked here): some
        # paths explode, some reach max_iter, one jump factor turns
        # non-positive, and the rest converge
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                             measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
        vol = VolatilitySpec(
            terms=(constant_term(0.25), exp_decay_term(-1.35, 40.0)),
            lambda_lower=0.01, lambda_upper=0.25)

        def run(threads):
            return martingale_test(spec, vol, constant_curve(26.0), grid,
                                   n_paths=24, master_seed=7, eps=1e-2,
                                   max_iter=20, explosion_threshold=1e300,
                                   threads=threads)

        serial, forked = run(1), run(2)
        monkeypatch.setattr(market, "BLOCK_CELLS", 1)
        one_path_blocks = [run(1), run(2)]
        assert serial.excluded_by_cause == {
            "Exploded": 4, "MaxIterations": 6, "NonPositiveFactor": 1}
        assert serial.n_excluded == 11
        for other in [forked] + one_path_blocks:
            assert other.excluded_by_cause == serial.excluded_by_cause
            assert other.n_excluded == serial.n_excluded
            for a, b in zip(serial.results, other.results):
                assert a.mean_discounted == b.mean_discounted
                assert a.std == b.std

    def test_block_size_follows_cells_alone(self, monkeypatch) -> None:
        monkeypatch.setattr(market, "_cpu_count", lambda: 2)

        def block_sizes(n_paths, threads, cells):
            blocks = []

            def rows(block):
                blocks.append(block)
                return list(block)

            outcomes = list(market._rows(rows, n_paths, threads, cells))
            assert outcomes == list(range(n_paths))
            return [len(b) for b in sorted(blocks, key=lambda b: b.start)]

        # 32768 cells: 15 fields at delta = 1/32, one at 1/128, for any
        # thread count
        for threads in (1, 2, 64):
            assert block_sizes(50, threads, 33 * 65) == [15, 15, 15, 5]
            assert block_sizes(100, threads, 33 * 65) == [15] * 6 + [10]
            assert block_sizes(3, threads, 129 * 257) == [1, 1, 1]
            assert block_sizes(3, threads, 33 * 65) == [3]

    def test_threads_below_one_rejected(self) -> None:
        for threads in (0, -1):
            with pytest.raises(DomainError, match="threads"):
                martingale_test(drift_only(1.0), constant_volatility(0.2),
                                exp_decay_curve(0.08, 0.4), _grid(),
                                n_paths=4, master_seed=0, threads=threads)

    def test_pool_asks_for_at_most_one_thread_per_block_and_cpu(
            self, monkeypatch) -> None:
        # a stand-in for the thread pool records the worker count it is
        # asked for and maps in the calling thread; no thread is started
        requested = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(market, "ThreadPoolExecutor", RecordingExecutor)
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        # five paths in three blocks of at most two
        _paths_per_block(monkeypatch, 2, grid)

        def run(threads):
            return martingale_test(gamma_subordinator(0.5, 2.0),
                                   constant_volatility(0.2),
                                   exp_decay_curve(0.08, 0.4), grid,
                                   n_paths=5, master_seed=7, threads=threads)

        serial = run(1)
        for cpus, workers in ((8, [3]), (2, [2]), (1, [])):
            monkeypatch.setattr(market, "_cpu_count", lambda: cpus)
            requested.clear()
            pooled = run(64)
            assert requested == workers
            for a, b in zip(pooled.results, serial.results):
                assert a.mean_discounted == b.mean_discounted
                assert a.std == b.std

    def test_workers_are_threads_of_the_calling_process(self,
                                                       monkeypatch) -> None:
        # two CPUs patched in, so that a one-CPU machine runs a pool too
        monkeypatch.setattr(market, "_cpu_count", lambda: 2)
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        _paths_per_block(monkeypatch, 4, grid)
        solve_paths = market.solve_paths
        callers, children = set(), []

        def recording_solve_paths(*args, **kwargs):
            callers.add(threading.get_ident())
            children.append(multiprocessing.active_children())
            return solve_paths(*args, **kwargs)

        monkeypatch.setattr(market, "solve_paths", recording_solve_paths)
        report = martingale_test(gamma_subordinator(0.5, 2.0),
                                 constant_volatility(0.2),
                                 exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=16, master_seed=7, threads=2)
        assert report.valid
        assert len(children) == 4 and all(c == [] for c in children)
        assert multiprocessing.active_children() == []
        assert callers and threading.get_ident() not in callers

    def test_threads_fill_a_user_density_cache_together(self,
                                                        monkeypatch) -> None:
        # more threads than cores and a short switch interval, on a fresh
        # user density per run, whose rule the threads build at once: a
        # race may only compute the same bits twice
        monkeypatch.setattr(market, "_cpu_count", lambda: 8)
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        _paths_per_block(monkeypatch, 2, grid)

        def run(threads):
            spec = LevyModelSpec(0.0, 0.0, UserDensity(
                density_fn=lambda y: 1.0 / (1.0 + y) ** 3))
            return martingale_test(spec, constant_volatility(0.2),
                                   exp_decay_curve(0.08, 0.4), grid,
                                   n_paths=32, master_seed=7,
                                   threads=threads)

        serial = run(1)
        workers = _block_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert workers and threading.get_ident() not in workers
        assert threaded.n_excluded == serial.n_excluded == 0
        for a, b in zip(serial.results, threaded.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.std == b.std

    def test_threads_build_one_table_per_model(self, monkeypatch) -> None:
        # two calls on two threads each, switching often: the first block
        # of the first call builds the J' table and every later one reads it
        monkeypatch.setattr(market, "_cpu_count", lambda: 2)
        _paths_per_block(monkeypatch, 2, _grid(1.0 / 8.0))
        workers = _block_threads(monkeypatch)
        # every read of the kept table, and every build behind it
        family = measures._RuleDensity
        build = family._derivative_table.__wrapped__
        reads, builds = [], []

        def counted_build(self):
            builds.append(self)
            return build(self)

        kept = measures._memoized(functools.wraps(build)(counted_build))

        def counted_read(self):
            reads.append(self)
            return kept(self)

        monkeypatch.setattr(family, "_derivative_table", counted_read)
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [martingale_test(spec, constant_volatility(0.25),
                                       constant_curve(5.0), _grid(1.0 / 8.0),
                                       n_paths=12, master_seed=seed, eps=1e-2,
                                       threads=2)
                       for seed in (1, 2)]
        finally:
            sys.setswitchinterval(interval)
        assert workers and threading.get_ident() not in workers
        assert all(r.n_paths == 12 for r in reports)
        assert len(builds) == 1 and builds[0] is spec.measure
        assert len(reads) >= 4

    def test_explicit_checkpoints_respected(self) -> None:
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        report = martingale_test(spec, vol, affine_curve(1.0, 1.0), grid,
                                 n_paths=8, master_seed=5,
                                 t_checkpoints=(0.5,), T_checkpoints=(1.0, 2.0))
        assert [(r.t, r.T) for r in report.results] == [(0.5, 1.0), (0.5, 2.0)]

    @pytest.mark.parametrize("t_pts, T_pts", [((math.nan,), None),
                                              (None, (math.inf,)),
                                              ((0.5,), (-math.inf,))])
    def test_non_finite_checkpoints_rejected(self, t_pts, T_pts) -> None:
        with pytest.raises(DomainError, match="is not a grid node"):
            martingale_test(drift_only(1.0), constant_volatility(0.2),
                            affine_curve(1.0, 1.0), _grid(), n_paths=4,
                            master_seed=5, t_checkpoints=t_pts,
                            T_checkpoints=T_pts)

    @pytest.mark.parametrize("t_pts, T_pts", [((), None), (None, []),
                                              ((), ())])
    def test_empty_checkpoints_rejected(self, t_pts, T_pts) -> None:
        with pytest.raises(DomainError, match="checkpoint"):
            martingale_test(drift_only(1.0), constant_volatility(0.2),
                            affine_curve(1.0, 1.0), _grid(), n_paths=4,
                            master_seed=5, t_checkpoints=t_pts,
                            T_checkpoints=T_pts)

    def test_invalid_path_count_rejected(self) -> None:
        grid = _grid()
        with pytest.raises(DomainError):
            martingale_test(drift_only(1.0), constant_volatility(0.2),
                            affine_curve(1.0, 1.0), grid, n_paths=0,
                            master_seed=5)


class TestDriftIdentity:
    def test_identity_error_shrinks_with_grid(self) -> None:
        # int_t^T J'(.)sigma du == J(int_s^T) - J(int_s^t) up to O(delta^2)
        errs = []
        for delta in (1.0 / 8.0, 1.0 / 16.0):
            grid = GridSpec(delta, 1.0, 2.0, 1.0)
            spec = gamma_subordinator(0.5, 2.0)
            vol = time_affine_volatility(0.2, 0.1, 1.0)
            path = simulate_path(spec, grid.t_star, [33, 0], eps=1e-3)
            a = field_a(exp_decay_curve(0.08, 0.4), field_b(vol, path, grid),
                        grid)
            report = solve_fixed_point(a, vol, spec, grid, tol=1e-11)
            assert report.converged
            err = drift_identity_check(spec, vol, report.final_field, grid,
                                       s=0.25, t=0.5, T=1.5)
            errs.append(err)
        assert errs[0] < 1e-3
        assert errs[1] < errs[0]

    def test_identity_matches_the_row_formula(self) -> None:
        # the formula drift_identity_check used to evaluate on row s alone,
        # kept as the oracle; a maturity-dependent volatility
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = VolatilitySpec((constant_term(0.1), exp_decay_term(0.2, 0.5)),
                             lambda_lower=0.1, lambda_upper=0.31,
                             x_derivative_bound=0.11)
        path = simulate_path(spec, grid.t_star, [33, 0], eps=1e-3)
        a = field_a(exp_decay_curve(0.08, 0.4), field_b(vol, path, grid), grid)
        field = solve_fixed_point(a, vol, spec, grid).final_field
        dj = fast_derivative(spec, 1)
        for s, t, T in ((0.0, 0.0, 2.0), (0.25, 0.5, 1.5), (1.0, 1.0, 2.0)):
            i_s = grid.index_of_time(s)
            j_t, j_T = grid.index_of_maturity(t), grid.index_of_maturity(T)
            sigma = (vol.standard(grid.t_nodes()[i_s], grid.T_nodes())
                     * field.values[i_s])
            ct = cumtrapz(sigma, grid.delta, axis=0)
            inner = np.maximum(ct - ct[i_s], 0.0)
            cols = slice(j_t, j_T + 1)
            left = float(np.trapezoid(dj(inner[cols]) * sigma[cols],
                                      dx=grid.delta))
            right = exponent(spec, inner[j_T]) - exponent(spec, inner[j_t])
            assert (drift_identity_check(spec, vol, field, grid, s, t, T)
                    == abs(left - right))

    def test_identity_tight_on_deterministic_field(self) -> None:
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, 0)
        a = field_a(affine_curve(1.0, 1.0), field_b(vol, path, grid), grid)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        err = drift_identity_check(spec, vol, report.final_field, grid,
                                   s=0.0, t=0.5, T=1.0)
        assert err < 1e-10
