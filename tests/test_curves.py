"""Initial forward curve builders."""

import math

import numpy as np
import pytest

from hjmm.curves import (
    InitialCurve,
    affine_curve,
    constant_curve,
    exp_decay_curve,
    require_positive_on,
    table_curve,
)
from hjmm.errors import NonPositiveInitialCurve


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
