"""Bond surfaces, the discounted-price identity, and the martingale check."""

import math
import multiprocessing

import numpy as np
import pytest

from hjmm import market
from hjmm.curves import affine_curve, constant_curve, exp_decay_curve
from hjmm.errors import DomainError
from hjmm.grids import GridSpec, RateField, flat_extend
from hjmm.levy import LevyModelSpec, drift_only, gamma_subordinator
from hjmm.market import (
    bond_surface,
    default_checkpoints,
    drift_identity_check,
    martingale_test,
)
from hjmm.measures import StableLike
from hjmm.paths import field_a, field_b, simulate_path
from hjmm.solver import solve_fixed_point
from hjmm.volatility import (VolatilitySpec, constant_term,
                             constant_volatility, exp_decay_term,
                             time_affine_volatility)

PRODUCT_IDENTITY_RTOL = 1e-12


def _grid(delta=1.0 / 16.0) -> GridSpec:
    return GridSpec(delta, 1.0, 2.0, 1.0)


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


def test_default_checkpoints_inside_grid() -> None:
    grid = _grid()
    t_pts, T_pts = default_checkpoints(grid)
    assert t_pts == (0.25, 0.5, 0.75)
    assert T_pts == (1.0, 1.5, 2.0)


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

    def test_worker_count_does_not_change_results(self) -> None:
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        serial = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=24, master_seed=7, threads=1)
        forked = martingale_test(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                                 n_paths=24, master_seed=7, threads=2)
        for a, b in zip(serial.results, forked.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.std == b.std

    def test_worker_count_keeps_partial_exclusions(self) -> None:
        # a stable-like driver in the explosion regime: with f0 = 26 some,
        # but not all, of the 24 paths explode and are excluded
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
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

    def test_block_size_follows_cells_and_workers(self) -> None:
        # 32768 cells: 15 fields at delta = 1/32, one at 1/128
        assert market._block_size(100, 1, 33 * 65) == 15
        assert market._block_size(100, 1, 129 * 257) == 1
        # at least four blocks per worker
        assert market._block_size(50, 2, 33 * 65) == 6
        assert market._block_size(3, 3, 33 * 65) == 1

    def test_threads_below_one_rejected(self) -> None:
        for threads in (0, -1):
            with pytest.raises(DomainError, match="threads"):
                martingale_test(drift_only(1.0), constant_volatility(0.2),
                                exp_decay_curve(0.08, 0.4), _grid(),
                                n_paths=4, master_seed=0, threads=threads)

    def test_pool_starts_at_most_one_worker_per_path(self,
                                                     monkeypatch) -> None:
        # an in-process stand-in for the fork pool records the worker
        # count it is asked for and hands back the rows last path first,
        # as an unordered pool may; no process is started
        requested = []

        class RecordingPool:
            def __init__(self, processes, initializer, initargs):
                requested.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def imap_unordered(self, func, iterable, chunksize=1):
                return map(func, reversed(list(iterable)))

        class FakeContext:
            Pool = RecordingPool

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: FakeContext)
        monkeypatch.setattr(market, "_worker_row", None)
        grid = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        pooled, serial = (
            martingale_test(gamma_subordinator(0.5, 2.0),
                            constant_volatility(0.2),
                            exp_decay_curve(0.08, 0.4), grid, n_paths=3,
                            master_seed=7, threads=threads)
            for threads in (64, 1))
        assert requested == [3]
        for a, b in zip(pooled.results, serial.results):
            assert a.mean_discounted == b.mean_discounted
            assert a.std == b.std

    def test_explicit_checkpoints_respected(self) -> None:
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        report = martingale_test(spec, vol, affine_curve(1.0, 1.0), grid,
                                 n_paths=8, master_seed=5,
                                 t_checkpoints=(0.5,), T_checkpoints=(1.0, 2.0))
        assert [(r.t, r.T) for r in report.results] == [(0.5, 1.0), (0.5, 2.0)]

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
