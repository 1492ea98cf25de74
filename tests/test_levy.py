"""Laplace exponent, derivative routes, and the growth classifier."""

import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from hjmm import measures
from hjmm.errors import DomainError, NonIntegrable, UnsupportedSpec
from hjmm.levy import (
    AssumptionReport,
    GrowthClassification,
    LevyModelSpec,
    Rule,
    Verdict,
    check_assumptions,
    classify_growth,
    drift_only,
    exponent,
    exponent_derivative,
    fast_derivative,
    gamma_subordinator,
    log_growth_profile,
)
from hjmm.measures import GammaLike, PointMasses, StableLike, UserDensity
from hjmm.volatility import constant_volatility

EXPONENT_RTOL = 1e-8
FD_RTOL = 1e-6


def test_gamma_subordinator_exponent_closed_form() -> None:
    # J(z) = -c * ln(1 + z/beta) once the drift cancels the compensator
    spec = gamma_subordinator(1.0, 1.0)
    for z in (0.5, math.exp(-1.0), 10.0):
        expected = -math.log1p(z)
        got = exponent(spec, z)
        assert abs(got - expected) <= EXPONENT_RTOL * abs(expected)


def test_gamma_subordinator_derivatives_closed_form() -> None:
    spec = gamma_subordinator(0.5, 4.0)
    dj = fast_derivative(spec, 1)
    ddj = fast_derivative(spec, 2)
    z = np.array([0.0, 0.3, 2.0, 15.0])
    np.testing.assert_allclose(dj(z), -0.5 / (4.0 + z), rtol=1e-12)
    np.testing.assert_allclose(ddj(z), 0.5 / (4.0 + z) ** 2, rtol=1e-12)


def test_drift_only_exponent_is_linear() -> None:
    spec = drift_only(-5.0)
    assert abs(exponent(spec, 2.0) - 10.0) < 1e-14
    assert abs(exponent_derivative(spec, 2.0, 1) - 5.0) < 1e-14
    assert exponent_derivative(spec, 2.0, 2) == 0.0


def test_exponent_at_zero_vanishes() -> None:
    for spec in (gamma_subordinator(1.0, 2.0),
                 LevyModelSpec(0.3, 0.1, PointMasses([(1.5, 2.0)]))):
        assert exponent(spec, 0.0) == 0.0


def test_finite_difference_consistency() -> None:
    # centered difference of J validates J' on both routes; centered
    # difference of J' validates J'' (differencing J twice would amplify
    # quadrature noise).  A negative atom at or below -1 is compensated in J,
    # so its derivative must carry the compensator too.
    specs = [gamma_subordinator(1.0, 1.0),
             LevyModelSpec(0.0, 0.0, PointMasses([(-2.0, 1.0)]))]
    h = 1e-6
    for spec in specs:
        fast = fast_derivative(spec, 1)
        for z in np.linspace(0.1, 50.0, 9):
            z = float(z)
            fd1 = (exponent(spec, z + h) - exponent(spec, z - h)) / (2.0 * h)
            for d1 in (exponent_derivative(spec, z, 1), float(fast(z))):
                assert abs(fd1 - d1) <= FD_RTOL * max(abs(d1), 1e-12), (
                    f"{type(spec.measure).__name__} z={z}: {d1} vs {fd1}")
            fd2 = (exponent_derivative(spec, z + h, 1)
                   - exponent_derivative(spec, z - h, 1)) / (2.0 * h)
            d2 = exponent_derivative(spec, z, 2)
            assert abs(fd2 - d2) <= FD_RTOL * max(abs(d2), 1e-12)


def test_fast_route_agrees_with_quadrature_route() -> None:
    specs = [
        gamma_subordinator(0.5, 4.0),
        LevyModelSpec(0.2, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0)),
        LevyModelSpec(-0.1, 0.3, PointMasses([(0.4, 1.0), (2.5, 0.5)])),
    ]
    z_values = (0.0, 1e-4, 0.7, 12.0)
    for spec in specs:
        for order in (1, 2):
            fast = fast_derivative(spec, order)
            for z in z_values:
                a = float(fast(np.array(z)))
                b = exponent_derivative(spec, z, order)
                assert abs(a - b) <= EXPONENT_RTOL * max(abs(b), 1e-10), (
                    f"{type(spec.measure).__name__} order={order} z={z}")


# J' tables: their stated tolerance against the rule's own J', relative,
# absolute below |J'| = 1, where J' changes sign
TABLE_TOL = 1e-10
_TABLE_Z = np.concatenate(([0.0], np.geomspace(1e-8, 2.9e4, 20001)))
_TABLED = {
    "stable_0.5": StableLike(1.0, 0.5, 1.0),
    "stable_1": StableLike(1.0, 1.0, 1.0),
    "stable_1.5": StableLike(1.0, 1.5, 1.0),
    "stable_y_max_4": StableLike(0.8, 1.3, 4.0),
    "user_gamma": UserDensity(density_fn=lambda y: 0.5 * np.exp(-2.0 * y) / y),
}


def _rule_route(spec: LevyModelSpec, z: np.ndarray) -> np.ndarray:
    return -spec.drift_a + spec.gaussian_q * z + spec.measure._rule_part(z, 1)


@pytest.mark.parametrize("a, q", [(0.0, 0.0), (0.4, 0.0), (-0.3, 0.2)])
@pytest.mark.parametrize("name", sorted(_TABLED))
def test_table_holds_its_tolerance(name, a, q) -> None:
    # drift and Gaussian part stay exact, so the table's error is that of
    # the measure's part; J' stays nondecreasing, as the iteration needs
    spec = LevyModelSpec(a, q, _TABLED[name])
    got = fast_derivative(spec, 1)(_TABLE_Z)
    want = _rule_route(spec, _TABLE_Z)
    assert spec.measure._derivative_table() is not None
    assert np.all(np.abs(got - want)
                  <= TABLE_TOL * np.maximum(1.0, np.abs(want)))
    assert np.all(np.diff(got) >= 0.0)


def test_table_keeps_the_shape_of_its_input() -> None:
    dj = fast_derivative(LevyModelSpec(0.1, 0.2, StableLike(1.0, 1.5)), 1)
    z = np.array([[0.3, 7.0], [0.0, 2e3]])
    for k in np.ndindex(z.shape):
        one = dj(z[k])
        assert np.ndim(one) == 0 and one == dj(z)[k]
    assert dj(z).shape == z.shape and dj(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("name", ["stable_1.5", "user_gamma"])
def test_cells_off_the_table_take_the_family_route(name) -> None:
    # the cells of exploding paths: z >= z_max, inf and NaN, among cells
    # on the table, which keep their own values; the rule serves them
    spec = LevyModelSpec(0.1, 0.2, _TABLED[name])
    dj = fast_derivative(spec, 1)
    z_max = measures._TABLE_Z_MAX
    z = np.array([0.5, z_max, np.nextafter(z_max, 0.0), 1e6, np.inf, 3.0,
                  np.nan])
    off = np.array([False, True, False, True, True, False, True])
    got = dj(z)
    assert got[off].tobytes() == _rule_route(spec, z[off]).tobytes()
    assert got[~off].tobytes() == dj(z[~off]).tobytes()


@pytest.mark.parametrize("measure", [
    GammaLike(0.5, 2.0), PointMasses([(0.4, 1.0), (2.0, 0.5)]),
    PointMasses([(-0.3, 2.0)])], ids=lambda m: type(m).__name__)
def test_closed_forms_are_not_tabled(measure) -> None:
    spec = LevyModelSpec(0.2, 0.1, measure)
    got = fast_derivative(spec, 1)(_TABLE_Z)
    assert not hasattr(measure, "_derivative_table")
    assert got.tobytes() == (-0.2 + 0.1 * _TABLE_Z + (
        measure.derivative_measure_part(_TABLE_Z, 1))).tobytes()


@pytest.mark.parametrize("measure", [
    # J'' ~ -ln z near 0, resolved only by the rule up to its end at e^22
    UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3),
    # J' bends on the scale 1/y_max = 1e-4, inside the first interval
    StableLike(0.8, 1.3, 1e4),
], ids=["heavy_tail", "stable_y_max_1e4"])
def test_table_that_misses_its_tolerance_is_not_used(measure) -> None:
    spec = LevyModelSpec(0.0, 0.0, measure)
    assert measure._derivative_table() is None
    got = fast_derivative(spec, 1)(_TABLE_Z)
    assert got.tobytes() == _rule_route(spec, _TABLE_Z).tobytes()


def test_unhashable_density_is_tabled() -> None:
    # the table is kept with the measure, so a density that is an
    # unhashable callable (a dataclass instance here) is tabled too
    @dataclass
    class Density:
        c: float

        def __call__(self, y):
            return self.c * np.exp(-2.0 * y) / y

    nu = UserDensity(density_fn=Density(0.5))
    with pytest.raises(TypeError):
        hash(nu)
    got = fast_derivative(LevyModelSpec(0.0, 0.0, nu), 1)(_TABLE_Z)
    assert nu._derivative_table() is not None
    assert got.tobytes() == fast_derivative(
        LevyModelSpec(0.0, 0.0, _TABLED["user_gamma"]), 1)(_TABLE_Z).tobytes()


def test_exponent_first_derivative_nondecreasing() -> None:
    # the Laplace exponent is convex, so J' never decreases
    spec = gamma_subordinator(2.0, 1.5)
    z = np.geomspace(1e-3, 30.0, 40)
    vals = fast_derivative(spec, 1)(z)
    assert np.all(np.diff(vals) >= -1e-14)


def test_domain_checks() -> None:
    spec = gamma_subordinator(1.0, 1.0)
    with pytest.raises(DomainError):
        exponent(spec, -0.5)
    with pytest.raises(DomainError):
        exponent_derivative(spec, 1.0, order=3)
    with pytest.raises(DomainError):
        LevyModelSpec(0.0, -1.0, PointMasses(()))


def test_subordinator_flag_validation() -> None:
    with pytest.raises(UnsupportedSpec):
        LevyModelSpec(0.0, 0.5, PointMasses([(1.0, 1.0)]), subordinator=True)
    with pytest.raises(UnsupportedSpec):
        LevyModelSpec(0.0, 0.0, PointMasses([(-0.5, 1.0)]), subordinator=True)
    with pytest.raises(UnsupportedSpec):
        LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0),
                      subordinator=True)


class TestClassifier:
    LAMBDA_BAR = 1.0
    T_STAR = 1.0

    def _classify(self, spec: LevyModelSpec) -> GrowthClassification:
        return classify_growth(spec, self.LAMBDA_BAR, self.T_STAR)

    def test_gaussian_part_forces_explosion(self) -> None:
        spec = LevyModelSpec(0.0, 1.0, PointMasses([(1.0, 1.0)]))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXPLOSION
        assert out.rule_fired is Rule.NECESSARY

    def test_negative_atom_above_threshold_forces_explosion(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(-0.5, 1.0)]))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXPLOSION
        assert out.rule_fired is Rule.NECESSARY

    def test_negative_atom_below_threshold_is_allowed(self) -> None:
        # atom at -3 lies outside (-1/lambda_bar, 0) = (-1, 0)
        spec = LevyModelSpec(0.0, 0.0,
                             PointMasses([(-3.0, 1.0), (1.0, 1.0)]))
        out = self._classify(spec)
        assert out.rule_fired is not Rule.NECESSARY

    def test_subordinator_rule(self) -> None:
        out = self._classify(gamma_subordinator(1.0, 2.0))
        assert out.verdict is Verdict.EXISTENCE
        assert out.rule_fired is Rule.SUBORDINATOR

    def test_stable_like_rho_above_one(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=0.5, y_max=1.0))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXISTENCE
        assert out.rule_fired is Rule.RHO_GT1
        assert abs(out.rho - 1.5) < 1e-12

    def test_stable_like_rho_below_one(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXPLOSION
        assert out.rule_fired is Rule.RHO_LT1
        assert abs(out.rho - 0.5) < 1e-12

    def test_stable_like_rho_equal_one_is_indeterminate(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.0, y_max=1.0))
        out = self._classify(spec)
        assert out.verdict is Verdict.INDETERMINATE
        assert out.rule_fired is Rule.RHO_EQ1

    def test_gamma_like_without_flag_uses_tauberian_rule(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, GammaLike(c=1.0, beta=1.0))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXISTENCE
        assert out.rule_fired is Rule.RHO_GT1
        assert out.rho == 2.0

    def test_atomic_measure_classified_as_existence(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(0.7, 2.0)]))
        out = self._classify(spec)
        assert out.verdict is Verdict.EXISTENCE

    def test_uncertified_user_density_is_indeterminate(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, UserDensity(density_fn=lambda y: np.exp(-y)))
        out = self._classify(spec)
        assert out.verdict is Verdict.INDETERMINATE
        assert out.rule_fired is Rule.NONE

    def test_certified_user_density_regression(self) -> None:
        # density e^{-y}/y has U(x) ~ x near 0... use y*e^{-y} instead:
        # U(x) = int_0^x y^3 e^{-y} dy ~ x^4/4, rho_hat near 4
        nu = UserDensity(density_fn=lambda y: y * np.exp(-y), a4_certified=True)
        out = self._classify(LevyModelSpec(0.0, 0.0, nu))
        assert out.verdict is Verdict.EXISTENCE
        assert out.rho is not None and out.rho > 1.5

    def test_lambda_bar_must_be_positive(self) -> None:
        with pytest.raises(DomainError):
            classify_growth(gamma_subordinator(1.0, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_lambda_bar_must_be_positive_and_finite(self, bad) -> None:
        # a NaN used to classify as ExistenceLogGrowth and give an
        # all-NaN profile
        spec = gamma_subordinator(1.0, 1.0)
        with pytest.raises(DomainError, match="positive and finite"):
            classify_growth(spec, bad, 1.0)
        with pytest.raises(DomainError, match="positive and finite"):
            log_growth_profile(spec, bad, 1.0, np.array([1.0, 2.0]))


class TestAssumptions:
    def test_all_pass_for_gamma_subordinator(self) -> None:
        report = check_assumptions(gamma_subordinator(0.5, 2.0),
                                   constant_volatility(0.2))
        assert report.ok
        assert report.a2_pass and report.a4_pass
        assert report.second_moment_finite
        assert abs(report.second_moment - 0.5 / 4.0) < 1e-12

    def test_second_moment_is_that_of_the_whole_measure(self) -> None:
        # J''(0) = q + int y^2 nu(dy) sums the negative atom too
        nu = PointMasses([(-0.5, 1.0), (1.0, 1.0)])
        report = check_assumptions(LevyModelSpec(0.0, 0.0, nu),
                                   constant_volatility(0.2))
        assert report.second_moment == nu.second_moment() == 1.25

    def test_no_a3_field_and_ok_reads_a2_and_a4(self) -> None:
        # every VolatilitySpec satisfies (A3): its constructor refuses
        # bounds that break it
        assert "a3_pass" not in {f.name for f in fields(AssumptionReport)}
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(-6.0, 1.0)]))
        for lam in (0.1, 0.2):
            report = check_assumptions(spec, constant_volatility(lam))
            assert report.ok == (report.a2_pass and report.a4_pass)
            assert report.ok == (lam < 1.0 / 6.0)

    def test_support_violation_detected(self) -> None:
        # atom at -6 violates the support condition for lambda_upper = 0.2
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(-6.0, 1.0)]))
        report = check_assumptions(spec, constant_volatility(0.2))
        assert not report.a2_pass
        assert report.a2_threshold == -5.0
        assert not report.ok

    def test_heavy_tail_breaks_integrability(self) -> None:
        # density ~ y^{-2} at infinity has divergent first tail moment
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 2)
        report = check_assumptions(LevyModelSpec(0.0, 0.0, nu),
                                   constant_volatility(0.2))
        assert not report.a4_pass
        assert report.a4_tail_integral == math.inf

    def test_divergent_small_jump_square_reads_infinite(self) -> None:
        # y^-3.5 on (0, 1]: U(x) diverges, so (A4) reads infinite while the
        # rule, which needs U(e^-40), cannot be built
        nu = UserDensity(density_fn=lambda y: np.where(
            np.asarray(y) <= 1.0, np.asarray(y, dtype=float) ** -3.5, 0.0))
        spec = LevyModelSpec(0.0, 0.0, nu)
        report = check_assumptions(spec, constant_volatility(0.2))
        assert report.a4_square_integral == math.inf
        assert not report.a4_pass
        with pytest.raises(NonIntegrable):
            fast_derivative(spec, 1)

    def test_infinite_second_moment_reported_but_not_fatal(self) -> None:
        # StableLike truncated at y_max always has a finite second moment;
        # use a slow user density instead
        nu = UserDensity(density_fn=lambda y: 1.0 / (1.0 + y) ** 3.5,
                         a4_certified=True)
        report = check_assumptions(LevyModelSpec(0.0, 0.0, nu),
                                   constant_volatility(0.2))
        assert report.a4_pass
        assert report.second_moment_finite


def test_log_growth_profile_shapes_and_sign() -> None:
    spec = gamma_subordinator(1.0, 1.0)
    z = np.geomspace(1.0, 1e6, 50)
    profile = log_growth_profile(spec, 1.0, 1.0, z)
    assert profile.shape == z.shape
    # subordinator: J' bounded, so the profile grows like ln z
    assert profile[-1] > profile[0]
    with pytest.raises(DomainError):
        log_growth_profile(spec, 1.0, 1.0, np.array([0.0, 1.0]))


def test_log_growth_profile_refuses_nan() -> None:
    # NaN <= 0 is false, so a NaN used to pass the positivity check
    with pytest.raises(DomainError, match="strictly positive"):
        log_growth_profile(gamma_subordinator(1.0, 1.0), 1.0, 1.0,
                           np.array([1.0, math.nan]))
