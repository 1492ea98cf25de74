"""Jump measure families: closed-form oracles, quadrature agreement, sampling."""

import math

import numpy as np
import pytest

from hjmm.errors import DomainError
from hjmm.levy import (LevyModelSpec, Rule, Verdict, check_assumptions,
                       classify_growth, exponent, exponent_derivative,
                       fast_derivative)
from hjmm.measures import (
    GammaLike,
    MeasureFamily,
    PointMasses,
    StableLike,
    UserDensity,
    compensated_exp,
)
from hjmm.paths import simulate_path
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


def _stable_shaped(alpha):
    return (lambda y: np.where(y <= 1.0, y ** (-1.0 - alpha), 0.0),
            (1e-12, 1e-12),
            lambda z, order: StableLike(1.0, alpha, 1.0).derivative_measure_part(
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


class _ExpDensity(MeasureFamily):
    """The density e^{-2y} on (0, inf), a family the library does not know."""

    def density(self, y):
        return math.exp(-2.0 * y)

    def support(self):
        return (0.0, math.inf)

    def derivative_measure_part(self, z, order):
        return _exp_density_derivative(np.asarray(z, dtype=float), order)

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

    def sample_sizes(self, rng, n, eps):
        return rng.exponential(0.5, size=n)


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

    def test_simulate_path_runs_on_heavy_tail(self) -> None:
        # finite activity (total mass 1/2): sizes drawn from the whole measure
        spec = LevyModelSpec(0.0, 0.0, UserDensity(
            density_fn=lambda y: 1.0 / (1.0 + y) ** 3))
        sizes = np.concatenate([simulate_path(spec, 1.0, [1, k], eps=1e-3).sizes
                                for k in range(20)])
        assert sizes.size > 0
        assert np.all(np.isfinite(sizes)) and np.all(sizes > 0.0)

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
            np.testing.assert_allclose(nu.derivative_measure_part(zs, order),
                                       expected, rtol=rtol, atol=0.0)
            if closed is not None:
                np.testing.assert_allclose(
                    nu.derivative_measure_part(_RULE_Z, order),
                    closed(_RULE_Z, order), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", sorted(_RULE_CASES))
    def test_fixed_rule_is_monotone(self, name) -> None:
        # J' nondecreasing and J'' >= 0, as the monotone iteration needs
        nu = UserDensity(density_fn=_RULE_CASES[name][0])
        z = np.concatenate(([0.0], np.geomspace(1e-10, 1e8, 20001)))
        assert np.all(np.diff(nu.derivative_measure_part(z, 1)) >= 0.0)
        assert np.all(nu.derivative_measure_part(z, 2) >= 0.0)

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
