"""Bond surfaces, the discounted-price identity, and the martingale check."""

import functools
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import hjmm
from hjmm import market, measures
from hjmm.curves import (InitialCurve, affine_curve, constant_curve,
                         exp_decay_curve)
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
from hjmm.solver import (STATUS_EXPLODED, STATUS_MAX_ITER,
                         STATUS_NONPOSITIVE, solve_fixed_point)
from hjmm.volatility import (VolatilitySpec, constant_term,
                             constant_volatility, exp_decay_term,
                             time_affine_volatility)

from _lambda_oracle import lambda_standard

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


def _record_pool(monkeypatch) -> list:
    """The worker counts that the thread pools are asked for from now on.

    A stand-in for the thread pool records them and maps in the calling
    thread; no thread is started.
    """
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
    return requested


# a stable-like driver at f0 = 26 with a volatility that dips below zero
# near T = 0 (its declared bounds are not checked here): some paths
# explode, some reach max_iter, some jump factors turn non-positive, and
# the rest converge
_MIXED_GRID = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)


def _mixed_outcomes(n_paths: int, threads: int):
    spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                         measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
    vol = VolatilitySpec(
        terms=(constant_term(0.25), exp_decay_term(-1.35, 40.0)),
        lambda_lower=0.01, lambda_upper=0.25)
    return martingale_test(spec, vol, constant_curve(26.0), _MIXED_GRID,
                           n_paths=n_paths, master_seed=7, eps=1e-2,
                           max_iter=20, explosion_threshold=1e300,
                           threads=threads)


def _assert_same_report(report, serial) -> None:
    assert report.excluded_by_cause == serial.excluded_by_cause
    assert report.n_excluded == serial.n_excluded
    for a, b in zip(serial.results, report.results, strict=True):
        assert a.mean_discounted == b.mean_discounted
        assert a.std == b.std


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
        i, j = grid.index_of_time(t), grid.index_of_maturity(T)
        assert surf.prices[i, j] == pytest.approx(math.exp(-r0 * (T - t)),
                                                  rel=1e-13)
        assert surf.discounted[i, j] == pytest.approx(math.exp(-r0 * T),
                                                      rel=1e-13)

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
            j = grid.index_of_maturity(T)
            assert surf.prices[0, j] == pytest.approx(expected, rel=1e-12)

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

    def test_surfaces_keep_one_field_besides_them(self) -> None:
        # the row integrals become the prices in place, so the call holds
        # its two surfaces and less than one field besides; at delta =
        # 1/128 a field (265 KB) outweighs the fixed iterator buffers
        # that numpy allocates for strided operands (up to 64 KiB each)
        grid = GridSpec(1.0 / 128.0, 1.0, 2.0, 1.0)
        rng = np.random.default_rng(5)
        field = RateField(flat_extend(0.05 + 0.01 * rng.random(grid.shape)),
                          grid)
        bond_surface(field, grid)  # builds the grid's cached triangle
        tracemalloc.start()
        try:
            surf = bond_surface(field, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * field.values.nbytes
        # bitwise the surfaces of the plain expressions
        ct = cumtrapz(field.values, grid.delta, axis=1)
        prices = np.exp(-(ct - np.diagonal(ct)[:, None]))
        prices[np.tri(*grid.shape, -1, dtype=bool)] = np.nan
        assert surf.discounted.tobytes() == np.exp(-ct).tobytes()
        assert surf.prices.tobytes() == prices.tobytes()

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


def test_exclusion_causes_are_the_solvers_outcomes() -> None:
    assert market.EXCLUSION_CAUSES == (STATUS_EXPLODED, STATUS_MAX_ITER,
                                       STATUS_NONPOSITIVE)
    assert STATUS_NONPOSITIVE == "NonPositiveFactor"


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
        serial, forked = _mixed_outcomes(24, 1), _mixed_outcomes(24, 2)
        monkeypatch.setattr(market, "BLOCK_CELLS", 1)
        one_path_blocks = [_mixed_outcomes(24, 1), _mixed_outcomes(24, 2)]
        assert serial.excluded_by_cause == {
            "Exploded": 4, "MaxIterations": 6, "NonPositiveFactor": 1}
        assert serial.n_excluded == 11
        for other in [forked] + one_path_blocks:
            _assert_same_report(other, serial)

    def test_uneven_cuts_give_the_one_path_blocks_results(
            self, monkeypatch) -> None:
        # blocks of at most 4 paths, cut unevenly among up to 3 workers
        monkeypatch.setattr(market, "_cpu_count", lambda: 4)
        for n_paths in (7, 50, 101):
            monkeypatch.setattr(market, "BLOCK_CELLS", 1)
            serial = _mixed_outcomes(n_paths, 1)
            assert 0 < serial.n_excluded < n_paths
            _paths_per_block(monkeypatch, 4, _MIXED_GRID)
            for threads in (1, 2, 3):
                _assert_same_report(_mixed_outcomes(n_paths, threads), serial)

    @pytest.mark.parametrize("n_paths, threads, cells, cpus", [
        (50, 2, 33 * 65, 2),     # the mc-explosive workload
        (50, 1, 33 * 65, 2),
        (100, 2, 33 * 65, 2),
        (100, 3, 33 * 65, 4),
        (7, 3, 33 * 65, 4),
        (101, 2, 65 * 129, 2),
        (101, 3, 65 * 129, 8),
        (3, 2, 129 * 257, 2),    # one path per block
        (5, 64, 129 * 257, 2),
        (3, 64, 33 * 65, 2),
        (1, 2, 33 * 65, 2),
    ])
    def test_blocks_are_balanced_and_within_budget(
            self, monkeypatch, n_paths, threads, cells, cpus) -> None:
        # the fewest blocks within the budget, rounded up to a multiple
        # of the worker count where a block keeps a path, cut evenly
        monkeypatch.setattr(market, "_cpu_count", lambda: cpus)
        requested = _record_pool(monkeypatch)
        blocks = []

        def rows(block):
            blocks.append(block)
            return list(block)

        outcomes = list(market._rows(rows, n_paths, threads, cells))
        assert outcomes == list(range(n_paths))
        budget = max(1, market.BLOCK_CELLS // cells)
        fewest = -(-n_paths // budget)
        workers = min(threads, fewest, cpus)
        assert requested == ([workers] if workers > 1 else [])
        assert [b.step for b in blocks] == [1] * len(blocks)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_paths
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= budget
        assert len(blocks) % workers == 0 or sizes == [1] * n_paths
        assert len(blocks) == min(-(-fewest // workers) * workers, n_paths)

    def test_threads_below_one_rejected(self) -> None:
        for threads in (0, -1):
            with pytest.raises(DomainError, match="threads"):
                martingale_test(drift_only(1.0), constant_volatility(0.2),
                                exp_decay_curve(0.08, 0.4), _grid(),
                                n_paths=4, master_seed=0, threads=threads)

    def test_pool_asks_for_at_most_one_thread_per_block_and_cpu(
            self, monkeypatch) -> None:
        requested = _record_pool(monkeypatch)
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        # five paths in blocks of at most two: three blocks, or four on
        # two workers
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

    @pytest.mark.parametrize("counts", [
        dict(n_paths=2.5), dict(n_paths=4.0), dict(n_paths=True),
        dict(n_paths="4"), dict(threads=2.0), dict(threads=1.5),
        dict(threads=np.float64(1.0))])
    def test_path_and_thread_counts_must_be_integers(self, counts) -> None:
        name, value = next(iter(counts.items()))
        kwargs = dict(n_paths=4, threads=1) | counts
        with pytest.raises(DomainError,
                           match=f"^{name} must be an integer, got "):
            martingale_test(drift_only(1.0), constant_volatility(0.2),
                            affine_curve(1.0, 1.0), _grid(), master_seed=5,
                            **kwargs)

    # 1.7 used to run, and report, master seed 1; -1 failed inside
    # numpy's seed sequence with a ValueError
    @pytest.mark.parametrize("seed, message", [
        (1.7, "must be an integer, got 1.7"), (-1, "must be at least 0")])
    def test_master_seed_must_be_a_nonnegative_integer(self, seed,
                                                       message) -> None:
        with pytest.raises(DomainError, match=f"^master_seed {message}"):
            martingale_test(drift_only(1.0), constant_volatility(0.2),
                            affine_curve(1.0, 1.0), _grid(), n_paths=4,
                            master_seed=seed)

    def test_numpy_integer_counts_are_accepted(self) -> None:
        args = (drift_only(1.0), constant_volatility(0.2),
                affine_curve(1.0, 1.0), _grid())
        plain = martingale_test(*args, n_paths=4, master_seed=5)
        numpy = martingale_test(*args, n_paths=np.int64(4), master_seed=5,
                                threads=np.int32(1))
        assert numpy.n_paths == 4
        assert ([r.mean_discounted for r in numpy.results]
                == [r.mean_discounted for r in plain.results])


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
            sigma = (lambda_standard(vol, grid.t_nodes()[i_s],
                                     grid.T_nodes()) * field.values[i_s])
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


class TestReferencePrices:
    def test_builtin_curve_prices_by_its_exact_integral(self) -> None:
        grid = _grid(1.0 / 32.0)
        T_idx = np.arange(grid.n_cols + 1)
        T = grid.T_nodes()
        prices = market._reference_prices(constant_curve(30.0), grid, T_idx)
        np.testing.assert_array_equal(prices, [math.exp(-30.0 * v) for v in T])

    def test_bare_callable_curve_prices_by_quadrature(self) -> None:
        # the same curve without its integral: quad agrees to its tolerance
        grid = _grid(1.0 / 32.0)
        T_idx = np.arange(grid.n_cols + 1)
        builtin = exp_decay_curve(0.08, 0.4)
        bare = InitialCurve(func=builtin.func)
        np.testing.assert_allclose(
            market._reference_prices(bare, grid, T_idx),
            market._reference_prices(builtin, grid, T_idx), rtol=1e-12,
            atol=0.0)

    def test_pipeline_runs_without_scipy_integrate(self) -> None:
        # in a fresh process: the solve-fine path, the mc-gamma and
        # mc-explosive martingale tests and the solve-user-density
        # pipeline, on the benchmark's config documents, load no scipy
        # module at all
        _assert_runs_without_scipy(
            "import json, pathlib, sys\n"
            "import hjmm\n"
            "from hjmm.solver import solve_path\n"
            "def cfg(name):\n"
            "    path = pathlib.Path(sys.argv[1]) / f'{name}.json'\n"
            "    doc = json.loads(path.read_text(encoding='utf-8'))\n"
            "    return hjmm.parse_config(doc['config'])\n"
            "fine = cfg('solve-fine')\n"
            "solve_path(fine.levy, fine.volatility, fine.curve, fine.grid,\n"
            "           [7, 0], fine.mc['eps'], **fine.solver)\n"
            "reports = [hjmm.martingale_test(\n"
            "    mc.levy, mc.volatility, mc.curve, mc.grid,\n"
            "    n_paths=mc.mc['n_paths'], master_seed=7, eps=mc.mc['eps'],\n"
            "    **mc.solver) for mc in map(cfg, ('mc-gamma', 'mc-explosive'))]\n"
            "assert reports[0].valid\n"
            "assert 0 < reports[1].n_excluded < reports[1].n_paths\n"
            "user = cfg('solve-user-density')\n"
            "hjmm.classify_growth(user.levy, user.volatility.lambda_upper,\n"
            "                     user.grid.t_star)\n"
            "hjmm.fast_derivative(user.levy, 1)\n"
            "for seed in ([7, 0], [7, 1]):\n"
            "    report = solve_path(user.levy, user.volatility, user.curve,\n"
            "                        user.grid, seed, user.mc['eps'],\n"
            "                        **user.solver)[3]\n"
            "    hjmm.bond_surface(report.final_field, user.grid)\n")

    def test_import_loads_no_scipy(self) -> None:
        _assert_runs_without_scipy("import hjmm\n")


def _assert_runs_without_scipy(code: str) -> None:
    """Run ``code`` in a fresh process, with the benchmark's workload
    directory as its first argument, and check that it loaded no module
    ``scipy`` or ``scipy.*``."""
    code += ("loaded = sorted(m for m in sys.modules\n"
             "                if m == 'scipy' or m.startswith('scipy.'))\n"
             "assert not loaded, loaded\n")
    workloads = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
        "workloads"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(hjmm.__file__).parents[1])] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code,
                           str(workloads)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
