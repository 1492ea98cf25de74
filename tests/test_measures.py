"""Jump measure families: closed-form oracles, quadrature agreement, sampling."""

import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import special as sc

import hjmm
from hjmm import measures
from hjmm.errors import DomainError, NonIntegrable
from hjmm.levy import (LevyModelSpec, Rule, Verdict, check_assumptions,
                       classify_growth, exponent, exponent_derivative,
                       fast_derivative)
from hjmm.measures import (
    GammaLike,
    MeasureFamily,
    PointMasses,
    StableLike,
    UserDensity,
    _invert_log_tail,
    _log_rule,
    _rule_sums,
    compensated_exp,
    integral_or_inf,
)
from hjmm.paths import simulate_path, simulate_paths
from hjmm.volatility import constant_volatility

ORACLE_TOL = 1e-10
QUAD_AGREEMENT_RTOL = 1e-8

# z points of the fixed-rule and quadrature-route checks
_RULE_Z = np.concatenate(([0.0], np.geomspace(1e-8, 1e6, 29)))


def _exp_density_exponent(z):
    """J of the density e^{-2y}: z ((1 - 3e^-2)/4 - 1/(2(2+z)))."""
    return z * ((1.0 - 3.0 * math.exp(-2.0)) / 4.0 - 0.5 / (2.0 + z))


def _exp_density_derivative(z, order):
    """J' and J'' of the density e^{-2y}: P(2) - 1/(2+z)^2 and 2/(2+z)^3."""
    if order == 1:
        return (1.0 - 3.0 * math.exp(-2.0)) / 4.0 - 1.0 / (2.0 + z) ** 2
    return 2.0 / (2.0 + z) ** 3


# 1/(k k!) (-1)^(k+1), k <= 14: the series of gamma_E + ln w + E1(w), which
# the closed form below takes where w < 0.5 (its first omitted term is
# below 2e-18 there)
_EIN_SERIES = [0.0] + [(-1.0) ** (k + 1) / (k * math.factorial(k))
                       for k in range(1, 15)]


def _stable_closed_form(nu, z, order):
    """J' or J'' of a stable-like density in closed form: incomplete gamma,
    and at alpha = 1 the exponential integral, on (0, min(1, y_max)), and
    the fixed rule on [1, y_max)."""
    z = np.asarray(z, dtype=float)
    b1 = min(1.0, nu.y_max)
    alpha, c = nu.alpha, nu.c
    w, s = z * b1, 2.0 - alpha
    safe_z = np.where(z > 0, z, 1.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if order == 1 and abs(alpha - 1.0) < 1e-8:
            safe_w = np.where(w < 0.5, 1.0, w)
            out = c * np.where(
                w < 0.5, np.polynomial.polynomial.polyval(w, _EIN_SERIES),
                np.euler_gamma + np.log(safe_w) + sc.exp1(safe_w))
        elif order == 1:
            t1 = -np.expm1(-w) * b1 ** (1.0 - alpha) / (1.0 - alpha)
            t2 = np.where(w > 0, safe_z ** (alpha - 1.0) * sc.gamma(s)
                          * sc.gammainc(s, w) / (1.0 - alpha), 0.0)
            out = c * (t1 - t2)
        else:
            out = c * np.where(w > 0, safe_z ** (alpha - 2.0) * sc.gamma(s)
                               * sc.gammainc(s, w), b1 ** s / s)
        if nu.y_max > 1.0:
            y, wts = _log_rule(0.0, math.log(nu.y_max))
            out = out + (-1) ** order * c * _rule_sums(
                z, y, wts * y ** (order - 1.0 - alpha), 0)
    return out


def _stable_shaped(alpha):
    return (lambda y: np.where(y <= 1.0, y ** (-1.0 - alpha), 0.0),
            (1e-12, 1e-12),
            lambda z, order: _stable_closed_form(StableLike(1.0, alpha, 1.0),
                                                 z, order))


# density, rtol against the quadrature route for orders 1 and 2, closed form;
# the heavy tail's J' is cut where the first moment of the tail falls to
# 1e-12, which for y f ~ y^-2 is the cap of ~1e9: ~1e-9 relative at z = 0
_RULE_CASES = {
    "exp": (lambda y: np.exp(-2.0 * y), (1e-12, 1e-12),
            _exp_density_derivative),
    "heavy_tail": (lambda y: 1.0 / (1.0 + y) ** 3, (1e-9, 1e-12), None),
    "stable_0.5": _stable_shaped(0.5),
    "stable_1.5": _stable_shaped(1.5),
}


# stable-like densities, whose J' and J'' come from the same rule
_STABLE_RULES = {
    f"stable_like_{alpha}_{y_max:g}": StableLike(1.0, alpha, y_max)
    for alpha, y_max in [(0.2, 0.5), (0.9, 1.0), (1.0, 1.0), (1.5, 1.0),
                         (1.9, 4.0), (1.3, 1e4)]
}


class _ExpDensity(MeasureFamily):
    """The density e^{-2y} on (0, inf), a family the library does not know."""

    def density(self, y):
        return math.exp(-2.0 * y)

    def support(self):
        return (0.0, math.inf)

    def derivative_measure_part(self, z, order, out=None, scratch=None):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z) if out is None else out
        out[...] = _exp_density_derivative(z, order)
        return out

    def squared_integral(self, x):
        # int_0^x y^2 e^{-2y} dy = (1 - e^{-2x} (1 + 2x + 2x^2)) / 4
        return -0.25 * (math.expm1(-2.0 * x)
                        + math.exp(-2.0 * x) * 2.0 * x * (1.0 + x))

    def first_moment(self, lo, hi):
        upper = (1.0 + 2.0 * hi) * math.exp(-2.0 * hi) if hi < math.inf else 0.0
        return 0.25 * ((1.0 + 2.0 * lo) * math.exp(-2.0 * lo) - upper)

    def second_moment(self, positive_only=False):
        return 0.25

    def total_mass(self):
        return 0.5

    def tail_mass(self, y):
        return 0.5 * math.exp(-2.0 * y)

    def jump_sizes(self, u, eps):
        return -0.5 * np.log1p(-u)


def test_family_outside_the_library_is_classified_and_integrated() -> None:
    # levy.py reads only the MeasureFamily interface: U(x) ~ x^3/3 near 0
    # gives rho ~ 3 by the default regression, and J, J', J'' come from the
    # default quadrature of the density
    spec = LevyModelSpec(0.1, 0.0, _ExpDensity())
    out = classify_growth(spec, 1.0, 1.0)
    assert out.verdict is Verdict.EXISTENCE and out.rule_fired is Rule.RHO_GT1
    assert abs(out.rho - 3.0) < 1e-3
    report = check_assumptions(spec, constant_volatility(0.2))
    assert report.ok and report.a4_square_integral == pytest.approx(
        spec.measure.squared_integral(1.0), rel=0.0, abs=0.0)
    for z in (0.0, 1e-5, 0.7, 40.0, 1e4):
        want = -0.1 * z + _exp_density_exponent(z)
        assert exponent(spec, z) == pytest.approx(want, rel=ORACLE_TOL, abs=0.0)
        for order in (1, 2):
            want = _exp_density_derivative(z, order) - (0.1 if order == 1
                                                        else 0.0)
            assert exponent_derivative(spec, z, order) == pytest.approx(
                want, rel=ORACLE_TOL, abs=0.0)
            assert float(fast_derivative(spec, order)(z)) == pytest.approx(
                want, rel=1e-15, abs=0.0)


def test_compensated_exp_matches_reference() -> None:
    # e^{-w} - 1 + w, checked against mpmath-free high-precision expansion
    assert compensated_exp(0.0) == 0.0
    w = 1.0
    assert abs(compensated_exp(w) - (math.exp(-1.0) - 1.0 + 1.0)) < 1e-15
    # series regime: w = 1e-6 gives w^2/2 - w^3/6 + w^4/24 to full precision
    w = 1e-6
    expected = w * w / 2.0 - w ** 3 / 6.0 + w ** 4 / 24.0
    assert abs(compensated_exp(w) - expected) < 1e-22


class TestPointMasses:
    def test_draws_are_those_of_generator_choice(self) -> None:
        ys, cs = np.array([0.4, 2.0, 0.1]), np.array([1.0, 0.5, 3.0])
        nu = PointMasses(zip(ys, cs))
        for seed in range(8):
            want = ys[np.random.default_rng(seed).choice(len(ys), 100,
                                                         p=cs / cs.sum())]
            got = nu.sample_sizes(np.random.default_rng(seed), 100, 0.0)
            assert got.tobytes() == want.tobytes()

    def test_piece_derivatives_at_zero(self) -> None:
        # single atom of size 2, mass 1: J'(0) = -y*c = -2, J''(0) = y^2*c = 4
        nu = PointMasses([(2.0, 1.0)])
        for order, want in ((1, -2.0), (2, 4.0)):
            assert nu.exponent_part(0.0, order) == want
            assert nu.derivative_measure_part(np.zeros(3), order).tolist() == [
                want] * 3

    def test_piece_values_single_atom(self) -> None:
        # atom y=2 with mass 3 sits in [1, inf), uncompensated:
        # J(z) = 3 (e^{-2z} - 1), J'(z) = -6 e^{-2z}, J''(z) = 12 e^{-2z}
        nu = PointMasses([(2.0, 3.0)])
        z = 0.7
        closed = (3.0 * math.expm1(-2.0 * z), -6.0 * math.exp(-2.0 * z),
                  12.0 * math.exp(-2.0 * z))
        for order, want in enumerate(closed):
            assert abs(nu.exponent_part(z, order) - want) < ORACLE_TOL

    def test_small_atom_lands_in_compensated_piece(self) -> None:
        # atoms below 1, negative ones too, carry the compensator:
        # J(z) = sum c (e^{-zy} - 1 + zy), J'(z) = sum c y (1 - e^{-zy})
        atoms = [(0.25, 2.0), (-0.5, 0.7), (3.0, 0.2)]
        nu = PointMasses(atoms)
        for z in (1e-6, 1.3, 9.0):
            j = sum(c * (math.expm1(-z * y) + (z * y if y < 1.0 else 0.0))
                    for y, c in atoms)
            dj = sum(c * y * ((1.0 if y < 1.0 else 0.0) - math.exp(-z * y))
                     for y, c in atoms)
            ddj = sum(c * y * y * math.exp(-z * y) for y, c in atoms)
            for order, want in enumerate((j, dj, ddj)):
                got = nu.exponent_part(z, order)
                assert abs(got - want) <= 1e-9 * abs(want), (z, order)
                assert float(nu.derivative_measure_part(np.array(z), order)) == got

    def test_vectorized_derivative_keeps_precision_at_small_z(self) -> None:
        # 1 - e^{-zy} cancels for small z*y; both routes must use expm1
        nu = PointMasses([(0.4, 1.0)])
        zs = [1e-12, 1e-9, 1e-6, 0.5]
        got = nu.derivative_measure_part(np.array(zs), 1)
        expected = [-0.4 * math.expm1(-0.4 * z) for z in zs]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_squared_integral_and_moments(self) -> None:
        nu = PointMasses([(0.5, 1.0), (2.0, 3.0)])
        assert nu.squared_integral(1.0) == 0.25
        assert nu.squared_integral(3.0) == 0.25 + 12.0
        assert nu.first_moment(1.0, math.inf) == 6.0
        assert nu.second_moment() == 12.25
        assert nu.total_mass() == 4.0

    def test_exact_sampling_counts(self) -> None:
        nu = PointMasses([(0.5, 1.0), (2.0, 3.0)])
        rng = np.random.default_rng(7)
        draws = nu.sample_sizes(rng, 1000, 0.0)
        assert set(np.unique(draws)) <= {0.5, 2.0}
        frac_large = np.mean(draws == 2.0)
        # mass ratio 3/4 with binomial noise ~ 0.014
        assert abs(frac_large - 0.75) < 0.05

    def test_rejects_zero_size_atom(self) -> None:
        with pytest.raises(DomainError):
            PointMasses([(0.0, 1.0)])


class TestStableLike:
    def test_truncated_second_moment_oracle(self) -> None:
        # U(x) = c * x^{2-alpha} / (2-alpha); c=1, alpha=1.5, x=0.25
        nu = StableLike(c=1.0, alpha=1.5, y_max=1.0)
        expected = 0.25 ** 0.5 / 0.5
        assert abs(nu.squared_integral(0.25) - expected) < ORACLE_TOL
        assert abs(nu.squared_integral(5.0) - nu.squared_integral(1.0)) == 0.0

    def test_infinite_small_jump_mean_for_alpha_ge_one(self) -> None:
        nu = StableLike(c=1.0, alpha=1.5, y_max=1.0)
        assert nu.first_moment(0.0, 1.0) == math.inf
        assert math.isfinite(nu.first_moment(0.1, 1.0))

    def test_tail_mass_oracle(self) -> None:
        nu = StableLike(c=2.0, alpha=0.5, y_max=1.0)
        y = 0.04
        expected = 2.0 * (y ** -0.5 - 1.0) / 0.5
        assert abs(nu.tail_mass(y) - expected) < 1e-9

    @pytest.mark.parametrize("y", [0.0, 1e-250, -1.0])
    def test_tail_mass_is_infinite_where_it_overflows(self, y) -> None:
        # y^-alpha overflowed (OverflowError) on y = 1e-250 and on the
        # 1e-300 that y = 0 was clamped to
        assert StableLike(c=1.0, alpha=1.5, y_max=1.0).tail_mass(y) == math.inf

    @pytest.mark.parametrize("run", ["simulate_paths", "martingale_test"])
    def test_overflowing_jump_count_is_refused(self, run) -> None:
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        with pytest.raises(DomainError, match="jumps per path expected"):
            if run == "simulate_paths":
                simulate_paths(spec, 1.0, [[1, 0]], 1e-250)
            else:
                hjmm.martingale_test(
                    spec, constant_volatility(0.25), hjmm.constant_curve(0.05),
                    hjmm.GridSpec(0.25, 1.0, 2.0, 1.0), n_paths=2,
                    master_seed=7, eps=1e-250)

    def test_fast_derivative_part_matches_quadrature(self) -> None:
        nu = StableLike(c=0.8, alpha=1.3, y_max=2.0)
        for z in (0.0, 1e-6, 0.03, 1.0, 7.5, 40.0):
            for order in (1, 2):
                fast = float(nu.derivative_measure_part(np.array(z), order))
                slow = nu.exponent_part(z, order)
                scale = max(abs(slow), 1e-12)
                assert abs(fast - slow) / scale < QUAD_AGREEMENT_RTOL, (
                    f"z={z} order={order}: {fast} vs {slow}")

    @pytest.mark.parametrize("y_max", [100.0, 1e4])
    def test_fast_derivative_part_on_a_long_support(self, y_max) -> None:
        # the y > 1 piece spans ln y_max; at z = 0 both orders are exact:
        # -c (Y^(1-a) - 1)/(1-a) and c Y^(2-a)/(2-a)
        c, alpha = 0.8, 1.3
        nu = StableLike(c=c, alpha=alpha, y_max=y_max)
        for z in (0.0, 1e-6, 0.03, 1.0, 7.5, 40.0):
            for order in (1, 2):
                fast = float(nu.derivative_measure_part(np.array(z), order))
                slow = nu.exponent_part(z, order)
                assert abs(fast - slow) / abs(slow) < QUAD_AGREEMENT_RTOL, (
                    f"z={z} order={order}: {fast} vs {slow}")
        exact = (-c * (y_max ** (1.0 - alpha) - 1.0) / (1.0 - alpha),
                 c * y_max ** (2.0 - alpha) / (2.0 - alpha))
        for order, want in zip((1, 2), exact):
            got = float(nu.derivative_measure_part(np.array(0.0), order))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_quadrature_route_over_eight_decades(self) -> None:
        # the power law y^(-alpha) on [1, 1e8]: one quad call over eight
        # decades does not converge at small z
        c, alpha, y_max = 0.8, 1.3, 1e8
        nu = StableLike(c=c, alpha=alpha, y_max=y_max)
        exact = (-c * (y_max ** (1.0 - alpha) - 1.0) / (1.0 - alpha),
                 c * y_max ** (2.0 - alpha) / (2.0 - alpha))
        for order, want in zip((1, 2), exact):
            assert nu.exponent_part(0.0, order) == pytest.approx(
                want, rel=1e-12, abs=0.0)
            for z in (0.0, 1e-6, 1e-3, 3.0):
                fast = float(nu.derivative_measure_part(np.array(z), order))
                assert nu.exponent_part(z, order) == pytest.approx(
                    fast, rel=1e-12, abs=0.0), (z, order)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_quadrature_route_matches_closed_form_up_to_large_z(
            self, alpha) -> None:
        # the boundary layer of width 1/z at y = 0 must not be missed
        nu = StableLike(c=1.0, alpha=alpha, y_max=1.0)
        spec = LevyModelSpec(0.0, 0.0, nu)
        for order in (1, 2):
            got = [exponent_derivative(spec, float(z), order) for z in _RULE_Z]
            np.testing.assert_allclose(
                got, nu.derivative_measure_part(_RULE_Z, order),
                rtol=ORACLE_TOL, atol=0.0)

    def test_alpha_one_log_branch_matches_quadrature(self) -> None:
        nu = StableLike(c=1.0, alpha=1.0, y_max=1.0)
        for z in (0.01, 0.5, 3.0):
            fast = float(nu.derivative_measure_part(np.array(z), 1))
            slow = nu.exponent_part(z, 1)
            assert abs(fast - slow) / max(abs(slow), 1e-12) < QUAD_AGREEMENT_RTOL

    def test_alpha_one_near_zero_matches_its_series(self) -> None:
        # J'(z) = gamma_E + ln z + E1(z), which cancels for small z: the
        # rule gives the sum sum_k (-1)^(k+1) z^k / (k k!) to rounding
        nu = StableLike(c=1.0, alpha=1.0, y_max=1.0)
        z = np.geomspace(1e-10, 1e-3, 71)
        series = [math.fsum((-1.0) ** (k + 1) * w ** k / (k * math.factorial(k))
                            for k in range(1, 8)) for w in z]
        np.testing.assert_allclose(nu._rule_part(z, 1), series,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("y_max", [0.5, 1.0, 4.0, 1e4])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 1.9])
    def test_rule_matches_the_closed_forms(self, alpha, y_max) -> None:
        # relative, absolute where |J'| < 1; the rule, and J' as the solver
        # reads it (from the table where it holds)
        nu = StableLike(c=1.0, alpha=alpha, y_max=y_max)
        z = np.concatenate(([0.0], np.geomspace(1e-8, 1e6, 4001)))
        for order in (1, 2):
            want = _stable_closed_form(nu, z, order)
            tol = 5e-14 * np.maximum(1.0, np.abs(want))
            for got in (nu._rule_part(z, order),
                        nu.derivative_measure_part(z, order)):
                assert np.all(np.abs(got - want) <= tol), order

    def test_inverse_tail_sampling_distribution(self) -> None:
        nu = StableLike(c=1.0, alpha=1.5, y_max=1.0)
        rng = np.random.default_rng(11)
        eps = 0.01
        draws = nu.sample_sizes(rng, 20000, eps)
        assert draws.min() >= eps and draws.max() <= 1.0
        # P(Y > y) = (y^-a - ymax^-a) / (eps^-a - ymax^-a); check the median
        total = eps ** -1.5 - 1.0
        median = ((eps ** -1.5 + 1.0) / 2.0) ** (-1.0 / 1.5)
        frac = np.mean(draws > median)
        assert abs(frac - 0.5) < 0.02

    def test_parameter_validation(self) -> None:
        with pytest.raises(DomainError):
            StableLike(c=1.0, alpha=2.0, y_max=1.0)
        with pytest.raises(DomainError):
            StableLike(c=-1.0, alpha=1.0, y_max=1.0)


class TestGammaLike:
    def test_squared_integral_oracle(self) -> None:
        # int_0^1 y e^{-y} dy = 1 - 2/e for c=1, beta=1
        nu = GammaLike(c=1.0, beta=1.0)
        expected = 1.0 - 2.0 / math.e
        assert abs(nu.squared_integral(1.0) - expected) < ORACLE_TOL

    def test_second_moment_closed_form(self) -> None:
        nu = GammaLike(c=1.5, beta=2.0)
        assert abs(nu.second_moment() - 1.5 / 4.0) < ORACLE_TOL

    def test_first_moment_closed_form(self) -> None:
        nu = GammaLike(c=2.0, beta=0.5)
        expected = 2.0 * (math.exp(-0.5) - math.exp(-1.0)) / 0.5
        assert abs(nu.first_moment(1.0, 2.0) - expected) < ORACLE_TOL
        assert abs(nu.first_moment(0.0, math.inf) - 2.0 / 0.5) < ORACLE_TOL

    def test_fast_derivative_part_matches_quadrature(self) -> None:
        nu = GammaLike(c=0.5, beta=4.0)
        for z in (0.0, 1e-5, 0.2, 2.0, 25.0):
            for order in (1, 2):
                fast = float(nu.derivative_measure_part(np.array(z), order))
                slow = nu.exponent_part(z, order)
                scale = max(abs(slow), 1e-12)
                assert abs(fast - slow) / scale < QUAD_AGREEMENT_RTOL

    def test_bisection_sampler_matches_tail_law(self) -> None:
        nu = GammaLike(c=1.0, beta=1.0)
        rng = np.random.default_rng(23)
        eps = 0.05
        draws = nu.sample_sizes(rng, 5000, eps)
        assert draws.min() >= eps
        # P(Y > y | Y > eps) = E1(y) / E1(eps); probe at y = 0.5
        import scipy.special as sc

        p_half = sc.exp1(0.5) / sc.exp1(eps)
        assert abs(np.mean(draws > 0.5) - p_half) < 0.02

    def test_one_newton_step_settles_every_draw(self) -> None:
        # the start read off E1's inverse table is close enough that one
        # evaluation of the tail settles a block of draws
        nu = GammaLike(c=0.5, beta=2.0)
        calls = []
        tail = nu._tail

        def counted(s):
            calls.append(s.size)
            return tail(s)

        object.__setattr__(nu, "_tail", counted)
        for eps in (1e-12, 1e-3, 0.5, 20.0):
            u = np.random.default_rng(4).uniform(size=85)
            sizes = nu.jump_sizes(u, eps)
            assert sizes.min() >= eps
        assert calls == [85] * 4


@pytest.mark.parametrize("family, kwargs", [
    (StableLike, dict(c=math.nan, alpha=1.5)),
    (StableLike, dict(c=math.inf, alpha=1.5)),
    (StableLike, dict(c=1.0, alpha=1.5, y_max=math.nan)),
    (StableLike, dict(c=1.0, alpha=1.5, y_max=math.inf)),
    (GammaLike, dict(c=math.nan, beta=2.0)),
    (GammaLike, dict(c=math.inf, beta=2.0)),
    (GammaLike, dict(c=0.5, beta=math.nan)),
    (GammaLike, dict(c=0.5, beta=math.inf)),
], ids=lambda v: v.__name__ if isinstance(v, type) else
    "-".join(f"{k}={x}" for k, x in v.items()))
def test_parameters_must_be_positive_and_finite(family, kwargs) -> None:
    name = next(k for k, x in kwargs.items() if not math.isfinite(x))
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
        family(**kwargs)


def _certified_gamma_density() -> UserDensity:
    """The gamma measure of the README model as a certified user density."""
    return UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y,
                       a4_certified=True)


class TestTailIndexFit:
    """The regression of U by numpy least squares, scipy's as the oracle."""

    def test_fit_matches_linregress(self) -> None:
        from scipy import stats

        nu = _certified_gamma_density()
        got = nu.tail_index()
        xs = np.geomspace(1e-6, 1e-2, 25)
        us = np.array([nu.squared_integral(float(x)) for x in xs])
        fit = stats.linregress(np.log(xs), np.log(us))
        assert abs(got.rho - fit.slope) <= 1e-12
        assert got.note == (
            f"log-log regression of U over [1e-06, 0.01]: rho_hat = "
            f"{fit.slope:.4f} +/- {2.0 * fit.stderr:.4f} (2 se)")

    def test_classifying_imports_no_scipy_stats(self) -> None:
        # in a fresh process: the package and the regression leave
        # scipy.stats unimported
        code = ("import sys\n"
                "import numpy as np\n"
                "import hjmm\n"
                "nu = hjmm.UserDensity(density_fn=lambda y: "
                "0.5 * np.exp(-2.0 * y) / y, a4_certified=True)\n"
                "out = hjmm.classify_growth(hjmm.LevyModelSpec(0.0, 0.0, nu), "
                "1.0, 1.0)\n"
                "assert out.rho is not None\n"
                "assert 'scipy.stats' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(hjmm.__file__).parents[1])]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
               else [])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]


class TestUserDensity:
    def test_wraps_callable_density(self) -> None:
        nu = UserDensity(density_fn=lambda y: np.exp(-y), a4_certified=True)
        # second moment of exp(-y) on (0, inf) is Gamma(3) = 2
        assert abs(nu.second_moment() - 2.0) < 1e-8
        assert abs(nu.squared_integral(math.inf) - 2.0) < 1e-8

    def test_quadrature_route_matches_gamma_closed_form(self) -> None:
        # the gamma density written as a user density: the solver's J' and
        # J'' from the fixed rule must match the closed form
        user = LevyModelSpec(0.0, 0.0, UserDensity(
            density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y))
        gamma = LevyModelSpec(0.0, 0.0, GammaLike(c=0.5, beta=2.0))
        z = np.geomspace(1e-6, 1e2, 40)
        for order in (1, 2):
            np.testing.assert_allclose(fast_derivative(user, order)(z),
                                       fast_derivative(gamma, order)(z),
                                       rtol=1e-10, atol=0.0)

    def test_exponent_matches_closed_form_up_to_large_z(self) -> None:
        # J, J', J'' of e^{-2y} on the quadrature route, boundary layer
        # of width 1/z at y = 0 included
        spec = LevyModelSpec(0.0, 0.0, UserDensity(
            density_fn=lambda y: np.exp(-2.0 * y)))
        for z in _RULE_Z:
            z = float(z)
            want = _exp_density_exponent(z)
            assert abs(exponent(spec, z) - want) <= ORACLE_TOL * abs(want)
            for order in (1, 2):
                want = _exp_density_derivative(z, order)
                got = exponent_derivative(spec, z, order)
                assert abs(got - want) <= ORACLE_TOL * abs(want), (z, order)

    def test_sizes_match_gamma_sampler(self) -> None:
        # the gamma density written as a user density draws the same jumps
        user = UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y)
        got = user.sample_sizes(np.random.default_rng(3), 20000, 1e-3)
        want = GammaLike(c=0.5, beta=2.0).sample_sizes(
            np.random.default_rng(3), 20000, 1e-3)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_heavy_tail_sizes_follow_exact_quantiles(self) -> None:
        # nu([y, inf)) = 1/(2 (1+y)^2): the size of uniform u above eps is
        # (1 + eps)/sqrt(1 - u) - 1
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        eps = 1e-3
        u = np.random.default_rng(4).uniform(size=20000)
        got = nu.sample_sizes(np.random.default_rng(4), 20000, eps)
        np.testing.assert_allclose(got, (1.0 + eps) / np.sqrt(1.0 - u) - 1.0,
                                   rtol=1e-11, atol=0.0)
        assert nu.tail_mass(eps) == pytest.approx(0.5 / (1.0 + eps) ** 2,
                                                  rel=1e-13, abs=0.0)

    def test_heavy_tail_mass_counts_the_mass_beyond_the_rule(self) -> None:
        # nu([y, inf)) = 1/(2 (1+y)^2) up to y = 1e9, next to the rule's end
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        for y in np.geomspace(1e-3, 1e9, 61):
            assert nu.tail_mass(float(y)) == pytest.approx(
                0.5 / (1.0 + y) ** 2, rel=1e-14, abs=0.0)

    def test_far_tail_sizes_follow_exact_quantiles(self) -> None:
        # above eps = 1e4 some draws lie beyond 1e6, where the mass beyond
        # the rule's end is 1e-7 of the tail mass
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        eps = 1e4
        u = np.random.default_rng(4).uniform(size=20000)
        got = nu.sample_sizes(np.random.default_rng(4), 20000, eps)
        np.testing.assert_allclose(got, (1.0 + eps) / np.sqrt(1.0 - u) - 1.0,
                                   rtol=1e-13, atol=0.0)

    def test_simulate_path_runs_on_heavy_tail(self) -> None:
        # finite activity (total mass 1/2): sizes drawn from the whole measure
        spec = LevyModelSpec(0.0, 0.0, UserDensity(
            density_fn=lambda y: 1.0 / (1.0 + y) ** 3))
        sizes = np.concatenate([simulate_path(spec, 1.0, [1, k], eps=1e-3).sizes
                                for k in range(20)])
        assert sizes.size > 0
        assert np.all(np.isfinite(sizes)) and np.all(sizes > 0.0)

    def test_divergent_tail_moment_is_refused(self) -> None:
        # (1+y)^-1.5: J'(0) = -inf; a rule cut short would give the tail
        # mass nu([100, inf)) = 0.69 against the exact 2/sqrt(101) = 0.199
        nu = UserDensity(density_fn=lambda y: (1.0 + y) ** -1.5)
        with pytest.raises(NonIntegrable, match="first moment"):
            nu.tail_mass(100.0)
        with pytest.raises(NonIntegrable, match="first moment"):
            fast_derivative(LevyModelSpec(0.0, 0.0, nu), 1)
        with pytest.raises(NonIntegrable, match="first moment"):
            simulate_path(LevyModelSpec(0.0, 0.0, nu), 1.0, 1, eps=1e-3)

    def test_tail_mass_of_a_draw_does_not_depend_on_its_batch(self) -> None:
        # each row of the sampler's tail is summed on its own
        nu = UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y)
        s = np.log(np.random.default_rng(8).uniform(1e-3, 5.0, size=64))
        for size in (7, 64):
            mass, slope = nu._tail(s[:size])
            for k in range(size):
                one = nu._tail(s[k:k + 1])
                assert (one[0][0], one[1][0]) == (mass[k], slope[k])

    def test_truncation_below_rule_start_raises(self) -> None:
        nu = UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y)
        with pytest.raises(DomainError, match="at least"):
            nu.sample_sizes(np.random.default_rng(0), 3, 1e-20)
        with pytest.raises(DomainError, match="at least"):
            nu.sample_sizes(np.random.default_rng(0), 3, 0.0)

    @pytest.mark.parametrize("name", sorted(_RULE_CASES))
    def test_fixed_rule_matches_quadrature_route(self, name) -> None:
        fn, rtols, closed = _RULE_CASES[name]
        nu = UserDensity(density_fn=fn)
        for order, rtol in zip((1, 2), rtols):
            zs = _RULE_Z
            if name == "heavy_tail" and order == 2:
                zs = zs[1:]  # J''(0) is infinite: y^2 f ~ 1/y at infinity
            expected = [nu.exponent_part(float(z), order) for z in zs]
            np.testing.assert_allclose(nu._rule_part(zs, order),
                                       expected, rtol=rtol, atol=0.0)
            if closed is not None:
                np.testing.assert_allclose(
                    nu._rule_part(_RULE_Z, order),
                    closed(_RULE_Z, order), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", sorted(_RULE_CASES) + sorted(_STABLE_RULES))
    def test_fixed_rule_is_monotone(self, name) -> None:
        # J' nondecreasing and J'' >= 0, as the monotone iteration needs:
        # by the rule, and as the solver reads them (J' from the table)
        nu = _STABLE_RULES.get(name) or UserDensity(
            density_fn=_RULE_CASES[name][0])
        z = np.concatenate(([0.0], np.geomspace(1e-10, 1e8, 20001)))
        for part in (nu._rule_part, nu.derivative_measure_part):
            assert np.all(np.diff(part(z, 1)) >= 0.0)
            assert np.all(part(z, 2) >= 0.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_bad_density_at_a_node_raises(self, bad) -> None:
        # wrong only on y in (e^-20.5, e^-19.5), where the rule has nodes
        def fn(y):
            return np.where(np.abs(np.log(y) + 20.0) < 0.5, bad, np.exp(-y))

        nu = UserDensity(density_fn=fn)
        for order in (1, 2):
            with pytest.raises(DomainError, match="finite and nonnegative"):
                nu.derivative_measure_part(np.array([0.5]), order)

    def test_blocks_do_not_change_values(self) -> None:
        nu = UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y)
        rng = np.random.default_rng(5)
        z = np.exp(rng.uniform(-20.0, 5.0, size=(65, 129)))
        z[0, :7] = 0.0
        flat = z.ravel()
        for order in (1, 2):
            whole = nu.derivative_measure_part(z, order)
            assert whole.shape == z.shape
            for size in (1, 100, 1000):
                parts = [nu.derivative_measure_part(flat[i:i + size], order)
                         for i in range(0, flat.size, size)]
                assert np.array_equal(np.concatenate(parts), whole.ravel())

    @pytest.mark.parametrize("measure", [
        PointMasses([(0.4, 1.0), (2.0, 0.5)]),
        StableLike(1.0, 1.5, 1.0),
        StableLike(1.0, 1.0, 10.0),
        StableLike(0.8, 1.3, 1e4),
        GammaLike(0.5, 2.0),
        UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y),
    ], ids=lambda m: type(m).__name__)
    def test_every_family_gives_each_point_its_own_value(self,
                                                         measure) -> None:
        # a stack of fields, a field, chunks and single points: the same
        # bits for every point, so stacked solves match one-path solves
        rng = np.random.default_rng(7)
        z = np.exp(rng.uniform(-20.0, 8.0, size=(3, 9, 17)))
        z[0, 0, :5] = 0.0
        for order in (1, 2):
            stacked = measure.derivative_measure_part(z, order)
            assert stacked.shape == z.shape
            for k in range(z.shape[0]):
                assert np.array_equal(
                    measure.derivative_measure_part(z[k], order), stacked[k])
            flat = z.ravel()
            for size in (1, 100):
                parts = [measure.derivative_measure_part(flat[i:i + size], order)
                         for i in range(0, flat.size, size)]
                assert np.array_equal(np.concatenate(parts), stacked.ravel())

    def test_simulate_path_same_with_warm_and_cold_cache(self) -> None:
        calls = []

        def density(y):
            calls.append(y)
            return 0.5 * np.exp(-2.0 * y) / y

        cold = [LevyModelSpec(0.0, 0.0, UserDensity(density_fn=density))
                for _ in range(3)]
        warm = LevyModelSpec(0.0, 0.0, UserDensity(density_fn=density))
        simulate_path(warm, 1.0, [9, 99], eps=1e-3)
        nodes = warm.measure._rule()[0]
        for k, spec in enumerate(cold):
            first = simulate_path(spec, 1.0, [9, k], eps=1e-3)
            del calls[:]
            second = simulate_path(warm, 1.0, [9, k], eps=1e-3)
            # the sampler evaluates the density at its draws, but the warm
            # measure neither integrates (scalar calls) nor rebuilds its rule
            assert not any(np.ndim(y) == 0 for y in calls)
            assert not any(np.array_equal(y, nodes) for y in calls)
            assert np.array_equal(first.times, second.times)
            assert np.array_equal(first.sizes, second.sizes)
            assert first.drift_rate == second.drift_rate


# the ends of the moment checks, from the rule's start to past its end
_MOMENT_Y = [math.exp(-40.0), 1e-12, 3e-7, 1e-3, 0.5, 1.0, 2.5, 40.0, 1e4,
             1e9]
# the rule's integrals against adaptive quadrature, relative; QUAD_RTOL
MOMENT_RTOL = 1e-10


def _quadrature_moment(fn, k, lo, hi):
    """The integral of y^k f(y) over [lo, hi) by adaptive quadrature with no
    absolute tolerance: one call per decade below 1e9 and, for hi = inf, one
    in v = y / max(lo, 1e9) beyond; +inf where a call diverges.  The oracle
    of a user density's integrals."""
    def part(g, a, b):
        return integral_or_inf(measures._quad, g, a, b, "moment oracle", 0.0)

    def moment(y):
        return float(y ** k * fn(y))

    top = min(hi, 1e9)
    ends = [lo, *(10.0 ** j for j in range(-18, 9) if lo < 10.0 ** j < top),
            top]
    # where quadrature chases a divergence out to huge y, y^k f may overflow
    # to inf * 0: a NaN, which reads divergent
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(part(lambda y: moment(np.float64(y)), a, b)
                    for a, b in zip(ends, ends[1:]) if a < b)
        if hi == math.inf:
            base = max(lo, 1e9)
            total += part(lambda v: base * moment(base * np.float64(v)),
                          1.0, math.inf)
    return total


def _gamma_square_integral(c, beta, x):
    """U(x) = c (1 - e^(-beta x) (1 + beta x)) / beta^2 of the density
    c e^(-beta y) / y, by its series where beta x < 0.01."""
    t = beta * x
    if t < 0.01:
        head = sum((-1) ** n * (n - 1) * t ** n / math.factorial(n)
                   for n in range(2, 13))
    else:
        head = -math.expm1(-t) - t * math.exp(-t)
    return c * head / beta ** 2


def _log_tail(y):
    """1/(y^2 ln(e+y)): finite U, a first moment of the tail that diverges
    like ln ln y."""
    return 1.0 / (y * y * np.log(np.e + y))


def _log_zero(y):
    """1/(y ln(1/y)) below 1/2: a total mass that diverges like
    ln ln(1/y) at zero."""
    return np.where(y < 0.5, 1.0 / (y * np.log(1.0 / np.minimum(y, 0.5))),
                    0.0)


class TestUserDensityMoments:
    """Every integral of a user density is read off its fixed rule."""

    @pytest.mark.parametrize("name", sorted(_RULE_CASES))
    def test_integrals_match_quadrature(self, name) -> None:
        fn = _RULE_CASES[name][0]
        nu = UserDensity(density_fn=fn)
        ends = [0.0, *_MOMENT_Y, math.inf]
        got, want = [], []
        for lo, hi in itertools.combinations(ends, 2):
            got.append(nu.first_moment(lo, hi))
            want.append(_quadrature_moment(fn, 1, lo, hi))
        for x in ends[1:]:
            got.append(nu.squared_integral(x))
            want.append(_quadrature_moment(fn, 2, 0.0, x))
        for y in _MOMENT_Y:
            got.append(nu.tail_mass(y))
            want.append(_quadrature_moment(fn, 0, y, math.inf))
        got += [nu.second_moment(), nu.total_mass()]
        want += [_quadrature_moment(fn, 2, 0.0, math.inf),
                 _quadrature_moment(fn, 0, 0.0, math.inf)]
        np.testing.assert_allclose(got, want, rtol=MOMENT_RTOL, atol=0.0)

    def test_gamma_density_matches_closed_forms(self) -> None:
        c, beta = 0.5, 2.0
        nu = UserDensity(density_fn=lambda y: c * np.exp(-beta * y) / y)
        # 1e-30 lies below the rule, on the continuation of its first panels
        xs = [1e-30, *_MOMENT_Y]
        got = [nu.squared_integral(x) for x in xs]
        want = [_gamma_square_integral(c, beta, x) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert nu.second_moment() == pytest.approx(c / beta ** 2,
                                                   rel=1e-13, abs=0.0)
        assert nu.total_mass() == math.inf

    def test_density_zero_beyond_a_cut_has_finite_integrals(self) -> None:
        # e^-y on (0, 1]: beyond e^0 every panel is zero, so the ratio of
        # the continuation reads 0/0, and the mass beyond is zero
        nu = UserDensity(density_fn=lambda y: np.where(y <= 1.0, np.exp(-y),
                                                        0.0))
        e = math.exp(-1.0)
        for got, want in [(nu.total_mass(), 1.0 - e),
                          (nu.first_moment(0.0, math.inf), 1.0 - 2.0 * e),
                          (nu.second_moment(), 2.0 - 5.0 * e)]:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert nu.first_moment(1.0, math.inf) == 0.0
        assert nu.tail_mass(2.0) == 0.0

    def test_draws_beyond_the_rule_end_follow_exact_quantiles(self) -> None:
        # (1+y)^-3 above eps = 1e8: a dozen of the draws lie beyond e^22,
        # the end of the rule of J', where the sampler reads the panels
        # that carry the tail masses up to e^30
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        eps = 1e8
        u = np.random.default_rng(4).uniform(size=20000)
        want = (1.0 + eps) / np.sqrt(1.0 - u) - 1.0
        assert np.sum(want > math.exp(22.0)) >= 10
        got = nu.sample_sizes(np.random.default_rng(4), 20000, eps)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("fn, integral, want", [
        # y f ~ y^-0.5 at infinity: the first moment diverges
        (lambda y: (1.0 + y) ** -1.5, lambda nu: nu.first_moment(1.0, math.inf),
         math.inf),
        (lambda y: (1.0 + y) ** -1.5, lambda nu: nu.total_mass(), 2.0),
        # y f ~ 1/y: a ratio just above 1
        (lambda y: (1.0 + y) ** -2.0, lambda nu: nu.first_moment(1.0, math.inf),
         math.inf),
        (lambda y: (1.0 + y) ** -3.0, lambda nu: nu.first_moment(1.0, math.inf),
         0.375),
        (lambda y: (1.0 + y) ** -3.0, lambda nu: nu.second_moment(), math.inf),
        # y^2 f ~ y^-1.5 at zero: U diverges
        (lambda y: np.where(y <= 1.0, y ** -3.5, 0.0),
         lambda nu: nu.squared_integral(1.0), math.inf),
        # y (1 + 1/y) f = 1/y + 1/y^2 at infinity: a ratio just below 1
        (lambda y: (1.0 + 1.0 / y) / y ** 2,
         lambda nu: nu.first_moment(1.0, math.inf), math.inf),
        # y f = 1/y at zero: a ratio of 1, divergent from 0 and finite from
        # 1e-30, below the rule's start
        (lambda y: np.where(y <= 1.0, y ** -2.0, 0.0),
         lambda nu: nu.first_moment(0.0, 1.0), math.inf),
        (lambda y: np.where(y <= 1.0, y ** -2.0, 0.0),
         lambda nu: nu.first_moment(1e-30, 1.0), 30.0 * math.log(10.0)),
        (lambda y: np.where(y <= 1.0, y ** -2.0, 0.0),
         lambda nu: nu.squared_integral(1.0), 1.0),
        # infinite activity: y f -> 1/2 at zero
        (lambda y: 0.5 * np.exp(-2.0 * y) / y, lambda nu: nu.total_mass(),
         math.inf),
        # y f = 1/(y ln(e+y)): the panels in ln y fall like 1/ln y, a ratio
        # of 0.93 at e^30 whose decay rate still falls
        (_log_tail, lambda nu: nu.first_moment(1.0, math.inf), math.inf),
        # y f = 1/ln(1/y) near zero: the same at e^-40, a ratio of 0.95
        (_log_zero, lambda nu: nu.total_mass(), math.inf),
        # mixed power laws, whose decay rate falls toward that of the
        # slower one: finite
        (lambda y: (1.0 + y) ** -3.0 + (1.0 + y) ** -2.5,
         lambda nu: nu.first_moment(1.0, math.inf),
         0.375 + 5.0 / (3.0 * math.sqrt(2.0))),
        (lambda y: np.where(y <= 1.0, y ** -2.5 + y ** -2.3, 0.0),
         lambda nu: nu.squared_integral(1.0), 2.0 + 1.0 / 0.7),
    ], ids=["tail-1.5-first", "tail-1.5-mass", "tail-2-first", "tail-3-first",
            "tail-3-second", "zero-3.5-U", "tail-2-slow-first",
            "zero-2-first", "zero-2-first-from-1e-30", "zero-2-U",
            "gamma-mass", "tail-log-first", "zero-log-mass",
            "tail-mixed-first", "zero-mixed-U"])
    def test_continuation_decides_divergence(self, fn, integral, want) -> None:
        got = integral(UserDensity(density_fn=fn))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_logarithmic_divergence_is_refused(self) -> None:
        # J'(0) = -inf: (A4) fails and the rule is not built
        spec = LevyModelSpec(0.0, 0.0, UserDensity(density_fn=_log_tail))
        report = check_assumptions(spec, constant_volatility(0.2))
        assert report.a4_tail_integral == math.inf
        assert not report.a4_pass
        with pytest.raises(NonIntegrable, match="first moment"):
            fast_derivative(spec, 1)
        # infinite activity, so a path needs a positive truncation level
        assert not UserDensity(density_fn=_log_zero).is_finite_activity

    def test_truncation_level_beyond_the_span_raises(self) -> None:
        # the sampler's tail masses stop at e^30; below, three quarters of
        # this one lie on the continuation beyond e^30, good to 8e-12
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3)
        eps = math.exp(30.0)
        assert nu.tail_mass(0.5 * eps) == pytest.approx(
            0.5 / (1.0 + 0.5 * eps) ** 2, rel=1e-11, abs=0.0)
        with pytest.raises(DomainError, match="below e\\^30"):
            nu.tail_mass(eps)
        with pytest.raises(DomainError, match="below e\\^30"):
            nu.sample_sizes(np.random.default_rng(0), 3, 2.0 * eps)


def _gamma_tail(s):
    """E1(2 e^s) and its -d/ds, the tail of GammaLike(1, 2) in s = ln y."""
    x = 2.0 * np.exp(s)
    return sc.exp1(x), np.exp(-x)


def _exp_over_y(rate):
    return lambda y: 0.5 * np.exp(-rate * y) / y


class TestReplace:
    """A measure made by dataclasses.replace keeps no table of the old one."""

    @pytest.mark.parametrize("old, change", [
        (StableLike(1.0, 1.5, 1.0), {"alpha": 0.5}),
        (UserDensity(density_fn=_exp_over_y(2.0)),
         {"density_fn": _exp_over_y(1.0)})], ids=["stable", "user"])
    def test_replaced_measure_is_a_fresh_one(self, old, change) -> None:
        z = np.array([0.0, 0.5, 10.0, 300.0])
        before = old.derivative_measure_part(z, 1)
        replaced = dataclasses.replace(old, **change)
        fresh = type(old)(**{**{f.name: getattr(old, f.name)
                                for f in dataclasses.fields(old) if f.init},
                             **change})
        got = replaced.derivative_measure_part(z, 1)
        assert np.array_equal(got, fresh.derivative_measure_part(z, 1))
        assert not np.array_equal(got, before)

    def test_cache_is_not_a_constructor_argument(self) -> None:
        with pytest.raises(TypeError, match="_cache"):
            StableLike(1.0, 1.5, 1.0, _cache={})
        with pytest.raises(TypeError, match="_cache"):
            UserDensity(density_fn=_exp_over_y(2.0), _cache={})


# every family, the one defined outside the library included, with a
# truncation level that each accepts
_BLOCK_FAMILIES = [
    GammaLike(0.5, 2.0),
    StableLike(1.0, 1.5, 1.0),
    PointMasses([(0.4, 1.0), (2.0, 0.5)]),
    UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y),
    _ExpDensity(),
]


class TestBlocks:
    """A block of paths draws each path's jumps as that path alone."""

    @pytest.mark.parametrize("size", [1, 7, 15])
    @pytest.mark.parametrize("measure", _BLOCK_FAMILIES,
                             ids=lambda m: type(m).__name__)
    def test_block_sizes_are_each_paths_own(self, measure, size) -> None:
        # the sizes of concatenated uniforms are those of each part
        counts = [(3 * k) % 5 for k in range(size)]  # zeros among them
        parts = [np.random.default_rng([11, k]).uniform(size=n)
                 for k, n in enumerate(counts)]
        block = measure.jump_sizes(np.concatenate(parts), 1e-2)
        assert block.size == sum(counts)
        end = 0
        for part in parts:
            alone = measure.jump_sizes(part, 1e-2)
            assert block[end:end + part.size].tobytes() == alone.tobytes()
            end += part.size

    @pytest.mark.parametrize("size", [1, 7, 15])
    @pytest.mark.parametrize("measure", _BLOCK_FAMILIES,
                             ids=lambda m: type(m).__name__)
    def test_block_paths_are_each_seeds_own(self, measure, size) -> None:
        spec = LevyModelSpec(0.0, 0.0, measure)
        seeds = [[21, k] for k in range(size)]
        for seed, path in zip(seeds, simulate_paths(spec, 1.0, seeds, 1e-2)):
            alone = simulate_path(spec, 1.0, seed, eps=1e-2)
            assert path.times.tobytes() == alone.times.tobytes()
            assert path.sizes.tobytes() == alone.sizes.tobytes()
            assert (path.drift_rate, path.truncation_eps) == (
                alone.drift_rate, alone.truncation_eps)

    def test_inversion_gives_each_draw_its_own_result(self) -> None:
        # inverted alone, some draws need more Newton steps than others;
        # inverted together, each keeps the value of its own last step
        u = np.random.default_rng(1).uniform(size=12)
        target = (1.0 - u) * sc.exp1(2e-3)
        lo = np.full(target.size, math.log(1e-3))
        hi = np.log(np.maximum(1.0, -np.log(target)) / 2.0)
        together = _invert_log_tail(_gamma_tail, target, lo, hi)
        steps = []
        for k in range(target.size):
            calls = []

            def counted(s):
                calls.append(s.size)
                return _gamma_tail(s)

            draw = slice(k, k + 1)
            alone = _invert_log_tail(counted, target[draw], lo[draw], hi[draw])
            steps.append(len(calls))
            assert together[draw].tobytes() == alone.tobytes()
        assert min(steps) < max(steps)
