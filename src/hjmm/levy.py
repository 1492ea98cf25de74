"""Levy driver specification, Laplace exponent, and growth classification.

The driving process L is described by a characteristic triplet
(drift a, Gaussian variance q, jump measure nu) through the exponent

    J(z) = -a*z + q*z^2/2 + J1(z) + J2(z) + J3(z),      z >= 0,

where J1 compensates jumps on the negative part of the support, J2
compensates jumps on (0, 1), and J3 covers [1, inf) without compensation,
so that E[exp(-z L(t))] = exp(t J(z)).

The growth classifier decides between two asymptotic regimes of J'(z):
at most logarithmic growth (the regime in which the forward-rate fixed
point exists globally) and growth at least a*(ln z)^3 + b (the regime in
which positive initial curves explode with positive probability).

Nothing here depends on the measure family: the measure's part of J, J'
and J'', its atoms in (-1/lambda_bar, 0), its (A4) small-jump integral and
its tail index rho are methods of :class:`hjmm.measures.MeasureFamily`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UnsupportedSpec
from .measures import GammaLike, MeasureFamily, PointMasses, integral_or_inf

__all__ = [
    "LevyModelSpec",
    "Verdict",
    "Rule",
    "GrowthClassification",
    "AssumptionReport",
    "exponent",
    "exponent_derivative",
    "fast_derivative",
    "classify_growth",
    "check_assumptions",
    "log_growth_profile",
    "gamma_subordinator",
    "drift_only",
]


@dataclass(frozen=True)
class LevyModelSpec:
    """Characteristic triplet of the driving Levy process.

    Parameters
    ----------
    drift_a : drift coefficient a in the exponent term -a*z.
    gaussian_q : Gaussian variance q >= 0.
    measure : jump measure, one of the families in :mod:`hjmm.measures`.
    subordinator : asserts that L is a subordinator plus a linear function
        (nonnegative drift of the jump part, finite variation, no Gaussian
        part).  Enables the bounded-derivative existence rule.
    """

    drift_a: float
    gaussian_q: float
    measure: MeasureFamily
    subordinator: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.drift_a):
            raise DomainError(f"drift must be finite, got {self.drift_a}")
        if not math.isfinite(self.gaussian_q) or self.gaussian_q < 0.0:
            raise DomainError(f"Gaussian variance must be >= 0, got {self.gaussian_q}")
        if self.subordinator:
            if self.gaussian_q != 0.0:
                raise UnsupportedSpec(
                    "subordinator flag requires a vanishing Gaussian part")
            if self.measure.support()[0] < 0.0:
                raise UnsupportedSpec(
                    "subordinator flag requires positive jumps only")
            if not math.isfinite(self.measure.first_moment(0.0, 1.0)):
                raise UnsupportedSpec(
                    "subordinator flag requires finite variation of small jumps")


class Verdict(str, Enum):
    """Growth regime of J' decided by :func:`classify_growth`."""

    EXISTENCE = "ExistenceLogGrowth"
    EXPLOSION = "ExplosionCubicLog"
    INDETERMINATE = "Indeterminate"


class Rule(str, Enum):
    """The classifier rule that decided a verdict."""

    NECESSARY = "NecessaryCondition"
    SUBORDINATOR = "Subordinator"
    RHO_GT1 = "TauberianRhoGt1"
    RHO_LT1 = "TauberianRhoLt1"
    RHO_EQ1 = "TauberianRhoEq1Integral"
    NONE = "None"


@dataclass(frozen=True)
class GrowthClassification:
    """Outcome of the growth classifier."""

    verdict: Verdict
    rule_fired: Rule
    rho: float | None = None
    notes: str = ""


def exponent(spec: LevyModelSpec, z: float) -> float:
    """Laplace exponent J(z) for z >= 0.

    Computed as -a*z + q*z^2/2 plus the measure's part,
    ``MeasureFamily.exponent_part``: adaptive quadrature at relative
    tolerance 1e-10 (exact sums for atomic measures); the compensated
    integrand switches to its power series for |z*y| below 1e-4 to avoid
    cancellation.
    """
    z = float(z)
    if z < 0.0 or not math.isfinite(z):
        raise DomainError(f"exponent requires z >= 0, got {z}")
    return (-spec.drift_a * z + 0.5 * spec.gaussian_q * z * z
            + spec.measure.exponent_part(z, 0))


def exponent_derivative(spec: LevyModelSpec, z: float, order: int = 1) -> float:
    """J'(z) (order=1) or J''(z) (order=2) for z >= 0, quadrature route.

    J'(0) = -a - int_{[1,inf)} y nu(dy) requires the tail integral of (A4);
    a divergent tail raises NonIntegrable.
    """
    z = float(z)
    if z < 0.0 or not math.isfinite(z):
        raise DomainError(f"exponent_derivative requires z >= 0, got {z}")
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    measure_part = spec.measure.exponent_part(z, order)
    if order == 1:
        return -spec.drift_a + spec.gaussian_q * z + measure_part
    return spec.gaussian_q + measure_part


def fast_derivative(spec: LevyModelSpec, order: int = 1):
    """Vectorized evaluator of J' or J'' on whole arrays of z.

    Returns a callable mapping a nonnegative float array to
    -a + q z + J'_nu(z) (order 1) or q + J''_nu(z) (order 2), where the
    measure's part comes from ``MeasureFamily.derivative_measure_part``;
    the solver and every checker read J' and J'' through it.  That part is
    a closed form for gamma-like densities, exact sums for atoms, and for
    stable-like and user densities one fixed Gauss-Legendre rule in ln y,
    built once per measure, whose J' on z in [0, 3e4) is read from a cubic
    Hermite table in log1p(z) built once per measure from the rule's own
    J' and J''.  The closed forms agree with :func:`exponent_derivative`
    to 1e-8 relative and the rule to 1e-9, for z up to 1e6 (tested); the
    table is used only where it agrees with the rule at the middle of
    every interval to 1e-10 relative, absolute where |J'| < 1.
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    a, q, measure = spec.drift_a, spec.gaussian_q, spec.measure
    # builds the rule and the table now, so that a measure without a rule
    # (a user density whose tail has no first moment) fails here
    measure.derivative_measure_part(np.empty(0), order)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        measure_part = measure.derivative_measure_part(z, order)
        if order == 1:
            return -a + q * z + measure_part
        return q + measure_part

    return evaluate


def classify_growth(spec: LevyModelSpec, lambda_bar: float,
                    t_star: float) -> GrowthClassification:
    """Decide the asymptotic growth regime of J'.

    Rules are applied in priority order: the necessary condition for
    log-growth (no Gaussian part, no atom in (-1/lambda_bar, 0)), then the
    subordinator rule, then the Tauberian comparison of the measure's tail
    index rho, U(x) ~ x^rho near zero, with 1: indeterminate within the
    band the measure knows rho to.  ``lambda_bar`` must be positive and
    finite (DomainError otherwise).  The verdict itself is horizon-free;
    ``lambda_bar`` enters only through the threshold -1/lambda_bar and
    ``t_star`` is accepted for interface symmetry with the solver.
    """
    if not 0.0 < lambda_bar < math.inf:
        raise DomainError(
            f"lambda_bar must be positive and finite, got {lambda_bar}")
    threshold = -1.0 / lambda_bar

    if spec.gaussian_q > 0.0:
        return GrowthClassification(
            Verdict.EXPLOSION, Rule.NECESSARY,
            notes="Gaussian part q > 0 forces at least cubic-log growth of J'.")
    measure = spec.measure
    negative = measure.negative_atoms(threshold)
    if negative:
        return GrowthClassification(
            Verdict.EXPLOSION, Rule.NECESSARY,
            notes=f"{negative} negative atom(s) in ({threshold:.6g}, 0) "
                  "force at least cubic-log growth of J'.")

    if spec.subordinator:
        return GrowthClassification(
            Verdict.EXISTENCE, Rule.SUBORDINATOR,
            notes="Subordinator plus linear function: J' is bounded above.")

    index = measure.tail_index()
    if index is None:
        return GrowthClassification(
            Verdict.INDETERMINATE, Rule.NONE,
            notes=f"{type(measure).__name__} gives no tail index (a user "
                  "density gives one only with integrability certificates).")
    rho = index.rho
    if abs(rho - 1.0) < index.band:
        return GrowthClassification(
            Verdict.INDETERMINATE, Rule.RHO_EQ1, rho=rho,
            notes=f"{index.note}; rho = 1 within {index.band:g}, where the "
                  "rule needs the slowly-varying part of U.")
    if rho > 1.0:
        return GrowthClassification(Verdict.EXISTENCE, Rule.RHO_GT1, rho=rho,
                                    notes=f"{index.note}; rho > 1.")
    return GrowthClassification(Verdict.EXPLOSION, Rule.RHO_LT1, rho=rho,
                                notes=f"{index.note}; rho < 1.")


@dataclass(frozen=True)
class AssumptionReport:
    """Per-assumption diagnostics for a model/volatility pair."""

    a2_pass: bool
    support_infimum: float
    a2_threshold: float
    a3_pass: bool
    a4_pass: bool
    a4_square_integral: float
    a4_tail_integral: float
    second_moment: float
    second_moment_finite: bool
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.a2_pass and self.a3_pass and self.a4_pass


def check_assumptions(spec: LevyModelSpec, vol) -> AssumptionReport:
    """Verify the structural assumptions linking the driver and volatility.

    Checks the support condition (the measure must not charge
    (-inf, -1/lambda_upper]), the two integrability conditions (square
    integrability near zero over (-1/lambda_upper, 1) and a finite first
    moment of the tail [1, inf); an integral whose quadrature diverges
    counts as infinite, see :func:`~hjmm.measures.integral_or_inf`), and
    reports the positive second moment needed by the uniqueness bound.
    The volatility's structural properties (separable terms, declared
    positive bounds) are validated at construction; they are reported here
    as the third assumption.
    """
    measure = spec.measure
    lambda_bar = vol.lambda_upper
    threshold = -1.0 / lambda_bar

    support_inf = measure.support()[0]
    a2_pass = support_inf > threshold

    notes = []
    a4_square = integral_or_inf(measure.small_jump_square, threshold)
    a4_tail = integral_or_inf(measure.first_moment, 1.0, math.inf)
    a4_pass = math.isfinite(a4_square) and math.isfinite(a4_tail)
    if not a4_pass:
        notes.append("(A4) integrability fails")

    second = measure.second_moment(positive_only=True)
    second_finite = math.isfinite(second)
    if not second_finite:
        notes.append("second moment diverges: uniqueness bound unavailable")

    a3_pass = (vol.lambda_lower > 0.0
               and vol.lambda_upper >= vol.lambda_lower
               and math.isfinite(vol.x_derivative_bound))
    if not a3_pass:
        notes.append("(A3) volatility bounds are not admissible")

    return AssumptionReport(
        a2_pass=a2_pass,
        support_infimum=support_inf,
        a2_threshold=threshold,
        a3_pass=a3_pass,
        a4_pass=a4_pass,
        a4_square_integral=a4_square,
        a4_tail_integral=a4_tail,
        second_moment=second,
        second_moment_finite=second_finite,
        notes="; ".join(notes),
    )


def log_growth_profile(spec: LevyModelSpec, lambda_bar: float, t_star: float,
                       z_grid: np.ndarray) -> np.ndarray:
    """Diagnostic profile ln(z) - lambda_bar * t_star * J'(z) on a z grid.

    A profile bounded below signals the log-growth regime; a profile
    diverging to -inf signals explosion.  Purely informational.
    ``lambda_bar`` must be positive and finite (DomainError otherwise).
    """
    if not 0.0 < lambda_bar < math.inf:
        raise DomainError(
            f"lambda_bar must be positive and finite, got {lambda_bar}")
    z = np.asarray(z_grid, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("z grid must be strictly positive")
    dj = fast_derivative(spec, 1)(z)
    return np.log(z) - lambda_bar * t_star * dj


def gamma_subordinator(c: float, beta: float) -> LevyModelSpec:
    """Gamma subordinator, normalized so the path drift vanishes.

    The drift a = int_{(0,1)} y nu(dy) exactly cancels the small-jump
    compensator, giving the pure-jump subordinator with
    J(z) = -c*ln(1 + z/beta).
    """
    measure = GammaLike(c=c, beta=beta)
    return LevyModelSpec(drift_a=measure.first_moment(0.0, 1.0), gaussian_q=0.0,
                         measure=measure, subordinator=True)


def drift_only(rate: float) -> LevyModelSpec:
    """Deterministic driver L(t) = rate * t (no jumps, no Gaussian part)."""
    return LevyModelSpec(drift_a=rate, gaussian_q=0.0, measure=PointMasses(()),
                         subordinator=rate >= 0.0)
