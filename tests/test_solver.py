"""Fixed-point solver: exact oracles, monotonicity, norms, uniqueness, residuals.

The deterministic driver L(t) = c*t makes the drift exponent cancel the
factor field exactly, so the solver must reproduce the initial curve to
machine precision; that oracle anchors everything else here.
"""

import logging
import math

import numpy as np
import pytest

import hjmm.solver
from hjmm.curves import affine_curve, constant_curve, exp_decay_curve
from hjmm.errors import DomainError, NonPositiveFactor, SecondMomentInfinite
from hjmm.grids import (GridSpec, RateField, cumtrapz, flat_extend,
                        gap_integral)
from hjmm.levy import (LevyModelSpec, drift_only, fast_derivative,
                       gamma_subordinator)
from hjmm.measures import PointMasses, StableLike, UserDensity
from hjmm.paths import JumpPath, field_a, field_b, simulate_path
from hjmm.solver import (
    STATUS_CONVERGED,
    STATUS_EXPLODED,
    STATUS_MAX_ITER,
    _row_gradient,
    apply_K,
    apriori_bound,
    solve_fixed_point,
    solve_path,
    solve_paths,
    strong_residual,
    timeline_norm,
    uniqueness_contraction_check,
    weighted_norms,
)
from hjmm.volatility import (VolatilitySpec, constant_term,
                             constant_volatility, exp_decay_term,
                             time_affine_volatility)

MONOTONE_TOL = 1e-12
NORM_ORACLE_RTOL = 2e-3


def _grid(delta=1.0 / 16.0) -> GridSpec:
    return GridSpec(delta, 1.0, 2.0, 1.0)


def _drift_path(grid: GridSpec, rate: float) -> JumpPath:
    return JumpPath(horizon=grid.t_star, drift_rate=rate, times=np.empty(0),
                    sizes=np.empty(0))


def _solve_setup(spec, vol, curve, grid, path):
    b = field_b(vol, path, grid)
    a = field_a(curve, b, grid)
    return a


class TestDeterministicOracle:
    def test_drift_only_reproduces_initial_curve(self) -> None:
        # L(t) = 2t: the drift exponent exactly cancels the factor field,
        # leaving f(t, T) = f0(T) = 1 + T at every node
        grid = _grid()
        spec = drift_only(2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, 0)
        a = _solve_setup(spec, vol, affine_curve(1.0, 1.0), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        assert report.converged
        expected = 1.0 + grid.T_nodes()
        err = np.max(np.abs(report.final_field.values - expected[None, :]))
        assert err < 1e-13

    def test_negative_drift_also_cancels(self) -> None:
        grid = _grid()
        spec = drift_only(-1.5)
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        path = simulate_path(spec, grid.t_star, 0)
        a = _solve_setup(spec, vol, exp_decay_curve(0.1, 0.3), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        assert report.converged
        expected = np.asarray(exp_decay_curve(0.1, 0.3)(grid.T_nodes()))
        err = np.max(np.abs(report.final_field.values - expected[None, :]))
        assert err < 1e-13


class TestMonotoneIteration:
    def test_increments_nonnegative_from_zero_start(self) -> None:
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, [11, 0], eps=1e-3)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        report = solve_fixed_point(a, vol, spec, grid)
        assert report.converged
        assert all(m >= -MONOTONE_TOL for m in report.increment_mins)

    def test_operator_monotone_in_input(self) -> None:
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, [12, 0], eps=1e-3)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        shape = (grid.n_t + 1, grid.n_cols + 1)
        low = RateField(np.zeros(shape), grid)
        high = RateField(np.full(shape, 0.5), grid)
        k_low = apply_K(low, a, vol, spec, grid)
        k_high = apply_K(high, a, vol, spec, grid)
        assert np.all(k_high.values >= k_low.values - MONOTONE_TOL)

    def test_output_carries_flat_extension(self) -> None:
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, [13, 0], eps=1e-3)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        report = solve_fixed_point(a, vol, spec, grid)
        assert report.final_field.extension_defect() == 0.0


def test_grid_refinement_second_order() -> None:
    # jump-free nonlinear solve: errors contract like delta^2, so the
    # coarse-vs-finest gap shrinks by about 5 when delta halves
    spec = gamma_subordinator(0.5, 2.0)
    vol = time_affine_volatility(0.2, 0.1, 1.0)
    curve = exp_decay_curve(0.08, 0.4)
    fields = []
    grids = [GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)]
    grids.append(grids[0].refine(2))
    grids.append(grids[0].refine(4))
    for g in grids:
        path = _drift_path(g, 1.0)
        a = _solve_setup(spec, vol, curve, g, path)
        report = solve_fixed_point(a, vol, spec, g, tol=1e-13)
        assert report.converged
        fields.append(report.final_field.values)
    ref = fields[2]
    e_coarse = np.max(np.abs(fields[0] - ref[::4, ::4]))
    e_mid = np.max(np.abs(fields[1] - ref[::2, ::2]))
    assert e_coarse > 0.0
    assert e_coarse / e_mid > 3.0


class TestNorms:
    @pytest.mark.parametrize("shape, t", [
        ((3, 3), 0.0), ((1, 17), 0.5), ((1, 17), 0.125), ((17,), 0.0),
        ((2, 9, 17), 0.0), ((9, 18), 0.0)])
    def test_array_without_the_slice_rejected(self, shape, t) -> None:
        # on the (9, 17) grid a (3, 3) array broadcast against the weights
        # (ValueError) and a (1, 17) one had no row for t = 0.5 (IndexError)
        with pytest.raises(DomainError, match="holds no slice"):
            weighted_norms(np.ones(shape), _grid(0.125), t)

    def test_leading_rows_of_a_field_are_accepted(self) -> None:
        # the one-row curve arrays of ``hjmm solve`` and the demos
        grid = _grid()
        values = np.random.default_rng(3).uniform(0.5, 2.0, grid.shape)
        full = weighted_norms(RateField(values, grid), grid, 0.0625)
        assert weighted_norms(values[:2], grid, 0.0625) == full
        assert (weighted_norms(values[:1], grid, 0.0)
                == weighted_norms(RateField(values, grid), grid, 0.0))

    def test_constant_slice_oracle(self) -> None:
        grid = GridSpec(1.0 / 32.0, 1.0, 2.0, 1.0)
        field = RateField(np.ones((grid.n_t + 1, grid.n_cols + 1)), grid)
        norms = weighted_norms(field, grid, 0.0)
        X = grid.t_max
        expected = math.sqrt((math.exp(grid.gamma * X) - 1.0) / grid.gamma)
        assert norms.l2_gamma == pytest.approx(expected, rel=NORM_ORACLE_RTOL)
        assert norms.sup == 1.0
        # zero derivative: H1 collapses onto L2
        assert norms.h1_gamma == pytest.approx(norms.l2_gamma, rel=1e-9)

    def test_exponential_slice_oracle(self) -> None:
        grid = GridSpec(1.0 / 64.0, 1.0, 2.0, 1.0)
        x = grid.T_nodes()
        vals = np.tile(np.exp(-x), (grid.n_t + 1, 1))
        norms = weighted_norms(RateField(vals, grid), grid, 0.0)
        X = grid.t_max
        l2_expected = math.sqrt(1.0 - math.exp(-X))
        h1_expected = math.sqrt(2.0 * (1.0 - math.exp(-X)))
        assert norms.l2_gamma == pytest.approx(l2_expected, rel=NORM_ORACLE_RTOL)
        assert norms.h1_gamma == pytest.approx(h1_expected, rel=NORM_ORACLE_RTOL)
        assert norms.sup == pytest.approx(1.0)

    def test_slice_shrinks_with_time(self) -> None:
        # at time t the slice covers [0, t_max - t]; same integrand,
        # shorter range, smaller norm
        grid = _grid()
        field = RateField(np.ones((grid.n_t + 1, grid.n_cols + 1)), grid)
        n0 = weighted_norms(field, grid, 0.0).l2_gamma
        n1 = weighted_norms(field, grid, 0.5).l2_gamma
        assert n1 < n0

    def test_timeline_norm_is_max_over_slices(self) -> None:
        grid = _grid()
        vals = np.ones((grid.n_t + 1, grid.n_cols + 1))
        vals[3] *= 2.0
        got = timeline_norm(vals, grid)
        expected = weighted_norms(RateField(flat_extend(vals), grid), grid,
                                  3 * grid.delta).l2_gamma
        # slice 3 dominates; flat extension does not alter row 3 above diagonal
        assert got == pytest.approx(2.0 * weighted_norms(
            RateField(np.ones_like(vals), grid), grid, 3 * grid.delta).l2_gamma)
        assert expected > 0.0

    def test_timeline_norm_infinite_on_nan(self) -> None:
        grid = _grid()
        vals = np.ones((grid.n_t + 1, grid.n_cols + 1))
        vals[2, 5] = math.nan
        assert timeline_norm(vals, grid) == math.inf

    def test_timeline_norm_infinite_on_last_diagonal_cell(self) -> None:
        # t_star = t_max: the last row is a one-node slice, still checked
        grid = GridSpec(0.25, 1.0, 1.0, 1.0)
        vals = np.ones((grid.n_t + 1, grid.n_cols + 1))
        vals[4, 4] = math.inf
        assert timeline_norm(vals, grid) == math.inf

    @pytest.mark.parametrize("shape", [(1, 17), (9, 9)])
    def test_timeline_norm_refuses_another_shape(self, shape) -> None:
        # the grid's fields are (9, 17); one row used to broadcast over
        # all nine times
        grid = GridSpec(0.125, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError, match="does not match grid"):
            timeline_norm(np.ones(shape), grid)

    @pytest.mark.parametrize("t_max", [2.0, 1.0])
    def test_timeline_norm_is_max_of_weighted_norms(self, t_max) -> None:
        grid = GridSpec(0.125, 1.0, t_max, 1.3)
        rng = np.random.default_rng(17)
        field = RateField.from_triangle(
            rng.uniform(0.1, 2.0, size=(grid.n_t + 1, grid.n_cols + 1)), grid)
        expected = max(weighted_norms(field, grid, t).l2_gamma
                       for t in grid.t_nodes())
        assert timeline_norm(field.values, grid) == pytest.approx(
            expected, rel=1e-13)


@pytest.mark.parametrize("t_max", [1.0, 1.5])
def test_row_gradient_matches_numpy_per_slice(t_max) -> None:
    grid = GridSpec(0.125, 1.0, t_max, 1.0)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.1, 2.0, size=(grid.n_t + 1, grid.n_cols + 1))
    got = _row_gradient(values, grid.delta)
    for i in range(min(grid.n_t + 1, grid.n_cols - 1)):
        np.testing.assert_array_equal(
            got[i, i:], np.gradient(values[i, i:], grid.delta, edge_order=2))


class TestAprioriBound:
    def test_subordinator_returns_base(self) -> None:
        # J' < 0 for the normalized subordinator, so the smallest
        # admissible constant is the base itself
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        c1 = apriori_bound(spec, vol, grid, r0_norm=1.3, b_sup=1.1)
        assert c1 == pytest.approx(1.3 * 1.1)

    def test_positive_constant_derivative_closed_form(self) -> None:
        # J'(z) = 2 constant: ln(c / base) = lam * t_star * 2 exactly
        grid = _grid()
        spec = drift_only(-2.0)
        vol = constant_volatility(0.2)
        c1 = apriori_bound(spec, vol, grid, r0_norm=1.0, b_sup=1.0)
        assert c1 == pytest.approx(math.exp(0.2 * 1.0 * 2.0), rel=1e-6)

    def test_no_admissible_constant_returns_none(self) -> None:
        # a large Gaussian part makes J' grow linearly; the gap never closes
        grid = _grid()
        spec = LevyModelSpec(0.0, 100.0, PointMasses(()))
        vol = constant_volatility(1.0)
        assert apriori_bound(spec, vol, grid, r0_norm=1.0, b_sup=1.0) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("arg", ["r0_norm", "b_sup"])
    def test_non_finite_or_non_positive_inputs_rejected(self, arg,
                                                        bad) -> None:
        # a NaN used to read as "no bound in range" (None), an inf ran
        # the scan from inf
        kwargs = dict(r0_norm=1.0, b_sup=1.0) | {arg: bad}
        with pytest.raises(DomainError, match="positive and finite"):
            apriori_bound(gamma_subordinator(0.5, 2.0),
                          constant_volatility(0.2), _grid(), **kwargs)


class TestUniqueness:
    def _solve_pair(self):
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, [15, 0], eps=1e-3)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        first = solve_fixed_point(a, vol, spec, grid, tol=1e-11)
        restart = RateField(2.0 * first.final_field.values, grid)
        second = solve_fixed_point(a, vol, spec, grid, tol=1e-11,
                                   initial=restart)
        return grid, spec, vol, first, second

    def test_two_starts_converge_to_same_field(self) -> None:
        grid, spec, vol, first, second = self._solve_pair()
        assert first.converged and second.converged
        dist = np.max(np.abs(first.final_field.values
                             - second.final_field.values))
        assert dist < 1e-6

    def test_contraction_report_passes(self) -> None:
        grid, spec, vol, first, second = self._solve_pair()
        report = uniqueness_contraction_check(first.final_field,
                                              second.final_field,
                                              spec, vol, grid)
        assert report.passed
        assert report.initial_sup < 1e-6

    def test_synthetic_constant_distance_follows_factorial_decay(self) -> None:
        # constant d: the closed-form bound M K^m (t* T_max)^m / (m!)^2
        # must hold and successive ratios are K uw / m^2
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        shape = (grid.n_t + 1, grid.n_cols + 1)
        f1 = RateField(np.full(shape, 0.10), grid)
        f2 = RateField(np.full(shape, 0.35), grid)
        report = uniqueness_contraction_check(f1, f2, spec, vol, grid,
                                              n_iter=6, tolerance=1.0)
        M = report.initial_sup
        K = report.k_constant
        uw = grid.t_star * grid.t_max
        assert M == pytest.approx(0.25)
        for m, bound in enumerate(report.analytic_bounds, start=1):
            assert bound == pytest.approx(
                M * K ** m * uw ** m / math.factorial(m) ** 2, rel=1e-12)
        # observed iterates must respect the bound at every stage
        for obs, bound in zip(report.observed_sups, report.analytic_bounds):
            assert obs <= bound * (1.0 + 1e-9)

    def test_constant_scales_with_the_jump_factor_sup(self) -> None:
        grid, spec, vol, first, second = self._solve_pair()
        unit, scaled = (uniqueness_contraction_check(
            first.final_field, second.final_field, spec, vol, grid,
            b_sup=b_sup) for b_sup in (1.0, 1.25))
        assert scaled.k_constant == pytest.approx(1.25 * unit.k_constant,
                                                  rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_b_sup_rejected(self, bad) -> None:
        # -1 used to give a negative constant, NaN a NaN one
        grid, spec, vol, first, second = self._solve_pair()
        with pytest.raises(DomainError, match="positive and finite"):
            uniqueness_contraction_check(first.final_field,
                                         second.final_field, spec, vol,
                                         grid, b_sup=bad)

    def test_infinite_second_moment_rejected(self) -> None:
        grid = _grid()
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        spec = LevyModelSpec(0.0, 0.0, nu)
        vol = constant_volatility(0.2)
        shape = (grid.n_t + 1, grid.n_cols + 1)
        f = RateField(np.ones(shape), grid)
        with pytest.raises(SecondMomentInfinite):
            uniqueness_contraction_check(f, f, spec, vol, grid)


class TestStrongResidual:
    def _solve_with_path(self, grid, path):
        spec = gamma_subordinator(0.5, 2.0)
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        assert report.converged
        return spec, vol, report.final_field

    def test_residual_shrinks_under_refinement(self) -> None:
        coarse = GridSpec(1.0 / 8.0, 1.0, 2.0, 1.0)
        fine = coarse.refine(2)
        residuals = []
        for g in (coarse, fine):
            path = _drift_path(g, 1.0)
            spec, vol, field = self._solve_with_path(g, path)
            rep = strong_residual(field, vol, spec, path, g)
            residuals.append(rep.time_residual_max)
            assert rep.jump_relation_max_error == 0.0
        assert residuals[0] / residuals[1] >= 1.5

    def test_dx_identity_residual_is_second_order(self) -> None:
        # d_x r = r (f0'/f0 + int J'' lambda^2 r ds) holds up to the O(delta^2)
        # error of the differences and the trapezoid rule
        spec = gamma_subordinator(0.5, 2.0)
        path = simulate_path(spec, 1.0, [31, 0])
        maxima = []
        for delta in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            grid = GridSpec(delta, 1.0, 2.0, 1.0)
            spec, vol, field = self._solve_with_path(grid, path)
            rep = strong_residual(field, vol, spec, path, grid)
            assert 0.0 < rep.dx_identity_mean <= rep.dx_identity_max
            maxima.append(rep.dx_identity_max)
        assert maxima[0] / maxima[1] >= 3.0
        assert maxima[1] / maxima[2] >= 3.0

    @pytest.mark.parametrize("t_max", [1.0, 2.0])
    def test_whole_array_residuals_match_per_slice_loop(self, t_max) -> None:
        # reference: one np.gradient per slice and per-panel jump checks;
        # the arithmetic per cell is the same, so everything but the
        # summation order of the d_x mean agrees bitwise
        grid = GridSpec(1.0 / 16.0, 1.0, t_max, 1.0)
        path = simulate_path(gamma_subordinator(0.5, 2.0), 1.0, [31, 0])
        spec, vol, field = self._solve_with_path(grid, path)
        rep = strong_residual(field, vol, spec, path, grid)

        r, dx, t = field.values, grid.delta, grid.t_nodes()
        lam = np.asarray(vol.standard(t, 0.0), dtype=float)
        inner = gap_integral(r * lam[:, None], dx)
        dj, ddj = fast_derivative(spec, 1), fast_derivative(spec, 2)
        integral = cumtrapz(ddj(inner) * (lam ** 2)[:, None] * r, dx, axis=0)
        g0 = np.gradient(r[0], dx, edge_order=2) / r[0]
        jump_free = [not np.any((path.times > t[i]) & (path.times <= t[i + 1]))
                     for i in range(grid.n_t)]
        time_res, dx_res = [], []
        for i in range(min(grid.n_t + 1, grid.n_cols - 1)):
            sl = r[i, i:]
            d_sl = np.gradient(sl, dx, edge_order=2)
            if i < grid.n_t and jump_free[i]:
                drift = (d_sl + dj(inner[i, i:]) * lam[i] * sl
                         + lam[i] * path.drift_rate * sl)
                fwd = (r[i + 1, i + 1:] - r[i, i:-1]) / dx
                time_res.append(np.abs(fwd - drift[:-1]))
            if sl.size >= 4:
                dx_res.append(
                    np.abs(d_sl - sl * (g0[i:] + integral[i, i:]))[1:-1])
        time_res, dx_res = np.concatenate(time_res), np.concatenate(dx_res)
        assert path.n_jumps and rep.panels_checked == sum(jump_free)
        assert rep.time_residual_max == np.max(time_res)
        assert rep.time_residual_mean == np.mean(time_res)
        assert rep.dx_identity_max == np.max(dx_res)
        assert rep.dx_identity_mean == pytest.approx(np.mean(dx_res),
                                                     rel=1e-14)

    def test_jump_relation_holds_at_jumps(self) -> None:
        grid = _grid()
        path = JumpPath(horizon=grid.t_star, drift_rate=0.5,
                        times=np.array([0.3, 0.7]),
                        sizes=np.array([0.8, 0.3]))
        spec, vol, field = self._solve_with_path(grid, path)
        rep = strong_residual(field, vol, spec, path, grid)
        assert rep.jump_relation_max_error < 1e-10

    def test_hand_built_constant_volatility_is_time_only(self) -> None:
        # constant terms given no flag: the strong form applies, and gives
        # bitwise the report of the constant_volatility builder
        grid = _grid()
        path = JumpPath(horizon=grid.t_star, drift_rate=0.5,
                        times=np.array([0.3, 0.7]),
                        sizes=np.array([0.8, 0.3]))
        spec = gamma_subordinator(0.5, 2.0)
        reports = []
        for vol in (VolatilitySpec(terms=(constant_term(0.2),),
                                   lambda_lower=0.2, lambda_upper=0.2),
                    constant_volatility(0.2)):
            a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
            report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
            reports.append(strong_residual(report.final_field, vol, spec,
                                           path, grid))
        assert reports[0] == reports[1]
        assert reports[0].panels_checked > 0
        assert reports[0].jump_relation_max_error < 1e-10

    @staticmethod
    def _maturity_dependent_residual(vol, grid, path) -> float:
        """The time residual max of the solved field; the jump relation
        holds, and the time-only d_x identity checks no cells (NaN)."""
        spec = gamma_subordinator(0.5, 2.0)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-12)
        assert report.converged
        rep = strong_residual(report.final_field, vol, spec, path, grid)
        assert rep.panels_checked > 0
        assert rep.jump_relation_max_error < 1e-10
        assert math.isnan(rep.dx_identity_max)
        assert math.isnan(rep.dx_identity_mean)
        return rep.time_residual_max

    def test_maturity_dependent_volatility_time_residual_shrinks(
            self) -> None:
        # lambda = e^{-0.1 T} on a path without jumps
        def a_fn(t):
            t = np.asarray(t, dtype=float)
            return np.ones(t.shape) if t.ndim else 1.0

        def b_fn(T):
            return np.exp(-0.1 * np.asarray(T, dtype=float))

        vol = VolatilitySpec(terms=((a_fn, b_fn),),
                             lambda_lower=math.exp(-0.2), lambda_upper=1.0,
                             x_derivative_bound=0.1)
        maxima = [self._maturity_dependent_residual(
            vol, _grid(delta), _drift_path(_grid(delta), 1.0))
            for delta in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)]
        assert maxima[0] / maxima[1] >= 1.5
        assert maxima[1] / maxima[2] >= 1.5

    @pytest.mark.parametrize("terms", [
        (exp_decay_term(0.2, 0.5),),
        (constant_term(0.1), exp_decay_term(0.15, 0.5)),
    ], ids=["exp_decay", "constant+exp_decay"])
    def test_exp_decay_volatility_on_a_jump_path(self, terms) -> None:
        path = simulate_path(gamma_subordinator(0.5, 2.0), 1.0, [31, 0])
        vol = VolatilitySpec(terms=terms, lambda_lower=0.05,
                             lambda_upper=0.25, x_derivative_bound=0.1)
        assert not vol.time_only and path.n_jumps
        coarse, fine = (self._maturity_dependent_residual(vol, _grid(delta),
                                                          path)
                        for delta in (1.0 / 8.0, 1.0 / 16.0))
        assert coarse / fine >= 1.5


class TestExplosion:
    def test_stable_like_large_curve_explodes(self) -> None:
        grid = _grid()
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        vol = constant_volatility(0.25)
        path = simulate_path(spec, grid.t_star, [900, 0], eps=1e-2)
        a = _solve_setup(spec, vol, constant_curve(100.0), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, max_iter=50,
                                   explosion_threshold=1e6)
        assert report.status == STATUS_EXPLODED
        assert report.norm_trace[-1] > 1e6 or not math.isfinite(
            report.norm_trace[-1])
        # the norm trace grows monotonically on the way out
        finite = [v for v in report.norm_trace if math.isfinite(v)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))

    @pytest.mark.parametrize("seed", [[900, 0], [903, 0]])
    def test_overflowing_norm_is_infinite_without_warning(self, seed) -> None:
        # the fourth iterate is finite, but its squared cells overflow the
        # weighted sum; pytest turns a RuntimeWarning into an error
        grid = _grid()
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        *_, report = solve_path(spec, constant_volatility(0.25),
                                constant_curve(100.0), grid, seed, 1e-2,
                                explosion_threshold=1e300)
        assert report.status == STATUS_EXPLODED
        assert report.iterations == 4
        assert report.norm_trace[-1] == math.inf

    def test_invalid_controls_rejected(self) -> None:
        grid = _grid()
        spec = drift_only(1.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, 0)
        a = _solve_setup(spec, vol, affine_curve(1.0, 1.0), grid, path)
        with pytest.raises(DomainError):
            solve_fixed_point(a, vol, spec, grid, tol=0.0)
        with pytest.raises(DomainError):
            solve_fixed_point(a, vol, spec, grid, max_iter=0)


def test_converged_status_string() -> None:
    assert STATUS_CONVERGED == "Converged"


def _reference_solve(a, vol, spec, grid, *, tol=1e-9, max_iter=200,
                     explosion_threshold=1e8):
    """The fixed-point iteration on one field, written out plainly.

    Returns (status, iterations, sup_diffs, increment_mins, norm_trace,
    final values): the oracle the stacked solver must match bit for bit.
    """
    lam = vol.on_grid(grid)
    dj = fast_derivative(spec, 1)
    current = np.zeros(grid.shape)
    sups, mins, norms = [], [], []
    status = STATUS_MAX_ITER
    for iterations in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            inner = gap_integral(lam * current, grid.delta)
            new = flat_extend(a * np.exp(cumtrapz(dj(inner) * lam,
                                                  grid.delta, axis=0)))
            diff = new - current
            sups.append(float(np.nanmax(np.abs(diff))))
            mins.append(float(np.nanmin(diff)))
        norms.append(timeline_norm(new, grid))
        current = new
        if not math.isfinite(norms[-1]) or norms[-1] > explosion_threshold:
            status = STATUS_EXPLODED
            break
        if sups[-1] < tol:
            status = STATUS_CONVERGED
            break
    return status, iterations, sups, mins, norms, current


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _report_bits(report) -> tuple:
    return (report.status, report.iterations, _bits(report.sup_diffs),
            _bits(report.increment_mins), _bits(report.norm_trace),
            _bits(report.final_field.values))


_STABLE = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
# negative near T = 0 (the declared bounds are not checked here), so that a
# large jump turns the factor 1 + lambda*dL non-positive
_DIPPING_VOL = VolatilitySpec(
    terms=(constant_term(0.25), exp_decay_term(-1.35, 40.0)),
    lambda_lower=0.01, lambda_upper=0.25)
# (volatility, f0, seeds, solver settings): a block with every outcome
# (at delta = 1/16: seed 10 explodes through an overflowing norm, 17 has a
# non-positive factor, others converge or reach max_iter), and the two
# seeds whose fourth iterate overflows the weighted norm sum
_BLOCKS = {
    "mixed": (_DIPPING_VOL, 20.0, [[k, 0] for k in range(24)],
              dict(max_iter=16, explosion_threshold=1e300)),
    "overflow": (constant_volatility(0.25), 100.0,
                 [[900, 0], [10, 0], [903, 0]],
                 dict(explosion_threshold=1e300)),
}


def _outcome(entry) -> str:
    return ("NonPositiveFactor" if isinstance(entry, NonPositiveFactor)
            else entry[3].status)


class TestStackedSolve:
    """A path's report is bitwise the same in any block of paths."""

    def _entries(self, name, size):
        vol, f0, seeds, solver = _BLOCKS[name]
        entries = []
        for i in range(0, len(seeds), size):
            entries += solve_paths(_STABLE, vol, constant_curve(f0), _grid(),
                                   seeds[i:i + size], 1e-2, **solver)
        return entries

    def test_mixed_block_holds_every_outcome(self) -> None:
        outcomes = [_outcome(e) for e in self._entries("mixed", 24)]
        assert set(outcomes) == {STATUS_CONVERGED, STATUS_EXPLODED,
                                 STATUS_MAX_ITER, "NonPositiveFactor"}
        exploded = [e[3] for e in self._entries("overflow", 3)]
        assert all(r.status == STATUS_EXPLODED for r in exploded)
        assert all(r.norm_trace[-1] == math.inf for r in exploded)

    @pytest.mark.parametrize("name, size", [("mixed", 24), ("mixed", 5),
                                            ("overflow", 3), ("overflow", 2)])
    def test_block_gives_each_path_its_own_report(self, name, size) -> None:
        vol, f0, seeds, solver = _BLOCKS[name]
        for seed, entry in zip(seeds, self._entries(name, size)):
            if isinstance(entry, NonPositiveFactor):
                with pytest.raises(NonPositiveFactor):
                    solve_path(_STABLE, vol, constant_curve(f0), _grid(),
                               seed, 1e-2, **solver)
                continue
            *_, alone = solve_path(_STABLE, vol, constant_curve(f0), _grid(),
                                   seed, 1e-2, **solver)
            assert _report_bits(entry[3]) == _report_bits(alone)
            status, iterations, sups, mins, norms, values = _reference_solve(
                entry[2], vol, _STABLE, _grid(), **solver)
            assert _report_bits(entry[3]) == (
                status, iterations, _bits(sups), _bits(mins), _bits(norms),
                _bits(values))

    def test_stack_of_one_matches_the_plain_loop(self) -> None:
        grid = _grid()
        spec = gamma_subordinator(0.5, 2.0)
        vol = constant_volatility(0.2)
        path = simulate_path(spec, grid.t_star, [42, 0], eps=1e-3)
        a = _solve_setup(spec, vol, exp_decay_curve(0.08, 0.4), grid, path)
        report = solve_fixed_point(a, vol, spec, grid, tol=1e-11)
        status, iterations, sups, mins, norms, values = _reference_solve(
            a, vol, spec, grid, tol=1e-11)
        assert _report_bits(report) == (status, iterations, _bits(sups),
                                        _bits(mins), _bits(norms),
                                        _bits(values))
        applied = apply_K(report.final_field, a, vol, spec, grid)
        lam = vol.on_grid(grid)
        inner = gap_integral(lam * values, grid.delta)
        expected = flat_extend(a * np.exp(cumtrapz(
            fast_derivative(spec, 1)(inner) * lam, grid.delta, axis=0)))
        assert _bits(applied.values) == _bits(expected)


def test_lambda_is_evaluated_once_per_vol_and_grid_across_blocks(
        monkeypatch) -> None:
    # lambda on the grid is built on the first call and cached, so the
    # factor fields and the iteration of every block read one array
    grid = _grid()
    on_nodes = []
    matrix = VolatilitySpec.matrix

    def counted(vol, t_values, T_values):
        on_nodes.append(np.array_equal(t_values, grid.t_nodes()))
        return matrix(vol, t_values, T_values)

    monkeypatch.setattr(VolatilitySpec, "matrix", counted)
    VolatilitySpec.on_grid.cache_clear()
    vol, f0, seeds, solver = _BLOCKS["mixed"]
    for lo in range(0, 12, 4):
        solve_paths(_STABLE, vol, constant_curve(f0), grid, seeds[lo:lo + 4],
                    1e-2, **solver)
    assert on_nodes.count(True) == 1
    info = VolatilitySpec.on_grid.cache_info()
    assert info.misses == 1 and info.hits >= 2


# one spec per J' route, each with J'(0) != 0 so that the shared
# exponential of K(0) is not identically one: the gamma closed form, the
# stable-like and user-density tables, and the exact sums of atoms
_ZERO_START_SPECS = {
    "gamma": gamma_subordinator(0.5, 2.0),
    "stable_like": LevyModelSpec(-0.1, 0.0,
                                 StableLike(c=1.0, alpha=1.5, y_max=1.0)),
    "user_density": LevyModelSpec(-0.3, 0.0, UserDensity(
        density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y)),
    "point_masses": LevyModelSpec(-0.2, 0.0,
                                  PointMasses([(0.4, 1.0), (1.5, 0.5)])),
}
_ZERO_START_VOLS = {
    "constant": constant_volatility(0.2),
    "time_affine": time_affine_volatility(0.2, 0.1, 1.0),
    "exp_decay": VolatilitySpec(terms=(exp_decay_term(0.25, 0.5),),
                                lambda_lower=0.25 * math.exp(-1.0),
                                lambda_upper=0.25),
}


@pytest.mark.parametrize("vol_name", list(_ZERO_START_VOLS))
@pytest.mark.parametrize("family", list(_ZERO_START_SPECS))
def test_zero_start_iterate_is_the_full_application(family, vol_name) -> None:
    # iteration 1 multiplies each a-field by the exponential that the
    # stack shares; it must be K(0) from the full operator, bitwise, in a
    # stack of 15 and alone
    spec, vol = _ZERO_START_SPECS[family], _ZERO_START_VOLS[vol_name]
    grid = _grid()
    assert float(fast_derivative(spec, 1)(np.zeros(1))[0]) != 0.0
    zero = RateField(np.zeros(grid.shape), grid)
    entries = solve_paths(spec, vol, exp_decay_curve(0.08, 0.4), grid,
                          [[k, 3] for k in range(15)], 1e-2, max_iter=1)
    assert len(entries) == 15
    for _, _, a, report in entries:
        expected = apply_K(zero, a, vol, spec, grid).values
        assert report.iterations == 1
        assert _bits(report.final_field.values) == _bits(expected)
        alone = solve_fixed_point(a, vol, spec, grid, max_iter=1)
        assert _report_bits(alone) == _report_bits(report)


class TestFieldOnAnotherGrid:
    """The solver and apply_K take only a RateField on their own grid."""

    # delta 0.25 on [0, 1] x [0, 2] and delta 0.5 on [0, 2] x [0, 4]
    # give fields of the same shape, (5, 9)
    GRID = GridSpec(0.25, 1.0, 2.0, 1.0)
    STARTS = {
        "same_shape": RateField(np.zeros((5, 9)), GridSpec(0.5, 2.0, 4.0, 1.0)),
        "other_shape": RateField(np.zeros((9, 17)),
                                 GridSpec(0.125, 1.0, 2.0, 1.0)),
        "ndarray": np.zeros((5, 9)),
    }

    def _model(self):
        return (np.full(self.GRID.shape, 0.08), constant_volatility(0.2),
                gamma_subordinator(0.5, 2.0))

    @pytest.mark.parametrize("start", list(STARTS))
    def test_solver_refuses_the_initial_field(self, start) -> None:
        a, vol, spec = self._model()
        with pytest.raises(DomainError, match="^initial must be a RateField "
                                              "on the supplied grid"):
            solve_fixed_point(a, vol, spec, self.GRID,
                              initial=self.STARTS[start])

    @pytest.mark.parametrize("start", list(STARTS))
    def test_apply_K_refuses_the_field(self, start) -> None:
        a, vol, spec = self._model()
        with pytest.raises(DomainError, match="^field must be a RateField "
                                              "on the supplied grid"):
            apply_K(self.STARTS[start], a, vol, spec, self.GRID)

    def test_a_field_on_the_grid_is_taken(self) -> None:
        a, vol, spec = self._model()
        start = RateField(np.zeros(self.GRID.shape),
                          GridSpec(0.25, 1.0, 2.0, 1.0))
        restarted = solve_fixed_point(a, vol, spec, self.GRID, initial=start)
        assert _report_bits(restarted) == _report_bits(
            solve_fixed_point(a, vol, spec, self.GRID))
        assert apply_K(start, a, vol, spec, self.GRID).grid == self.GRID


class TestDebugLog:
    """Under DEBUG, solve_paths logs every iteration of every path."""

    def test_records_every_iteration_of_every_path(self, caplog) -> None:
        vol, f0, seeds, solver = _BLOCKS["mixed"]
        seeds = seeds[15:19]
        caplog.set_level(logging.DEBUG, logger="hjmm.solver")
        entries = solve_paths(_STABLE, vol, constant_curve(f0), _grid(),
                              seeds, 1e-2, **solver)
        assert isinstance(entries[2], NonPositiveFactor)
        expected = []
        for seed, entry in zip(seeds, entries):
            if isinstance(entry, NonPositiveFactor):
                jumps = simulate_path(_STABLE, 1.0, seed, eps=1e-2).n_jumps
                expected.append(f"path {seed}: {jumps} jumps, NonPositiveFactor")
                continue
            report = entry[3]
            expected += [
                f"path {seed} iteration {k}: sup_diff {sup!r}, norm {norm!r}, "
                f"min increment {low!r}"
                for k, (sup, norm, low) in enumerate(zip(
                    report.sup_diffs, report.norm_trace,
                    report.increment_mins), 1)]
            expected.append(f"path {seed}: {entry[0].n_jumps} jumps, "
                            f"{report.status} after {report.iterations} "
                            "iterations")
        records = [r for r in caplog.records if r.name == "hjmm.solver"]
        assert all(r.levelno == logging.DEBUG for r in records)
        assert [r.getMessage() for r in records] == expected

    def test_above_debug_nothing_is_logged_or_formatted(
            self, caplog, monkeypatch) -> None:
        def unexpected(*args):
            raise AssertionError("per-path records built above DEBUG")

        monkeypatch.setattr(hjmm.solver, "_log_path", unexpected)
        caplog.set_level(logging.INFO, logger="hjmm.solver")
        vol, f0, seeds, solver = _BLOCKS["mixed"]
        solve_paths(_STABLE, vol, constant_curve(f0), _grid(), seeds[15:19],
                    1e-2, **solver)
        assert not [r for r in caplog.records if r.name == "hjmm.solver"]
