"""Initial forward curve builders."""

import math

import numpy as np
import pytest
from scipy import integrate

from hjmm.curves import (
    InitialCurve,
    affine_curve,
    constant_curve,
    exp_decay_curve,
    require_positive_on,
    table_curve,
)
from hjmm.errors import NonPositiveInitialCurve
from hjmm.grids import GridSpec

# the maturity nodes of a delta = 1/32, t_max = 2 grid
T_NODES = GridSpec(1.0 / 32.0, 1.0, 2.0, 1.0).T_nodes()
# first knot above 0, last knot below t_max
TABLE = [(0.25, 0.10), (1.0, 0.06), (1.5, 0.04)]


def _quad(curve: InitialCurve, T: float, points=None) -> float:
    """int_0^T of the curve by the adaptive quadrature that prices the
    time-zero bonds of a curve with no exact integral."""
    return integrate.quad(lambda u: float(curve(u)), 0.0, T, epsabs=1e-13,
                          epsrel=1e-12, limit=200, points=points)[0]


def test_constant_curve() -> None:
    c = constant_curve(0.05)
    assert c(0.0) == 0.05
    assert c(7.3) == 0.05


def test_affine_curve_values_and_slope() -> None:
    c = affine_curve(1.0, 1.0)
    u = np.linspace(0.0, 2.0, 5)
    np.testing.assert_allclose(c(u), 1.0 + u)


def test_exp_decay_curve() -> None:
    c = exp_decay_curve(0.08, 0.4)
    assert c(0.0) == pytest.approx(0.08)
    assert c(1.0) == pytest.approx(0.08 * math.exp(-0.4))


def test_table_curve_interpolates_and_extends() -> None:
    c = table_curve([(0.0, 0.10), (1.0, 0.06), (2.0, 0.04)])
    assert c(0.5) == pytest.approx(0.08)
    # beyond the last knot the curve stays flat
    assert c(5.0) == pytest.approx(0.04)
    u = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(c(u), [0.10, 0.06, 0.04])


def test_custom_curve_callable_protocol() -> None:
    c = InitialCurve(func=lambda u: 0.08 + 0.175 * np.exp(-4.0 * u))
    assert c(0.0) == pytest.approx(0.255)


def test_require_positive_on_accepts_positive_curve() -> None:
    nodes = np.linspace(0.0, 2.0, 9)
    require_positive_on(exp_decay_curve(0.08, 0.4), nodes)


def test_require_positive_on_rejects_zero_crossing() -> None:
    c = affine_curve(0.1, -0.2)
    with pytest.raises(NonPositiveInitialCurve):
        require_positive_on(c, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("curve", [
    constant_curve(30.0), affine_curve(0.1, 0.05), exp_decay_curve(0.08, 0.4),
    exp_decay_curve(0.08, 0.0)], ids=lambda c: c.label)
def test_exact_integral_matches_quadrature(curve) -> None:
    exact = curve.integral(T_NODES)
    np.testing.assert_allclose(exact, [_quad(curve, T) for T in T_NODES],
                               rtol=1e-12, atol=0.0)


def test_table_integral_matches_quadrature_split_at_knots() -> None:
    # unsplit, quad loses about 1.5e-12 relative on the kinks of this
    # table; split at the knots, every piece is smooth
    curve = table_curve(TABLE)
    knots = [u for u, _ in TABLE]
    quad = [_quad(curve, T, [u for u in knots if 0.0 < u < T] or None)
            for T in T_NODES]
    np.testing.assert_allclose(curve.integral(T_NODES), quad, rtol=1e-12,
                               atol=0.0)


def test_table_integral_extends_flat_on_both_sides() -> None:
    curve = table_curve(TABLE)
    # 0.10 * 0.25 flat, two trapezoids 0.06 and 0.025, 0.04 * 0.5 flat
    assert curve.integral(0.25) == pytest.approx(0.025, rel=1e-15)
    assert curve.integral(2.0) == pytest.approx(0.13, rel=1e-15)
    # knots below zero: only [0, T] counts
    below = table_curve([(-1.0, 0.2), (1.0, 0.1)])
    assert below.integral(1.0) == pytest.approx(0.125, rel=1e-15)


def test_bare_callable_curve_has_no_exact_integral() -> None:
    assert InitialCurve(func=lambda u: np.full_like(u, 0.05)).integral is None
