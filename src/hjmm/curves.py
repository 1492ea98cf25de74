"""Initial forward-curve families.

An initial curve maps the maturity u >= 0 to the starting forward rate
f(0, u); it must be strictly positive.  The tabulated family interpolates
linearly and extends flat.  Every family built here also carries its
exact integral from 0, which prices the time-zero bonds; a curve built
from a bare callable has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, NonPositiveInitialCurve, nonnegative,
                     positive)

__all__ = [
    "InitialCurve",
    "constant_curve",
    "affine_curve",
    "exp_decay_curve",
    "table_curve",
    "require_positive_on",
]


@dataclass(frozen=True)
class InitialCurve:
    """Initial forward curve: a vectorized function of the maturity.

    ``integral``, when set, is the vectorized exact integral
    T -> int_0^T func(u) du; None leaves the integral to quadrature.
    """

    func: Callable
    label: str = ""
    integral: Callable | None = None

    def __call__(self, u):
        return self.func(np.asarray(u, dtype=float))


def require_positive_on(curve: InitialCurve, nodes: np.ndarray) -> np.ndarray:
    """The curve at the nodes, all > 0, else NonPositiveInitialCurve."""
    vals = np.asarray(curve(nodes), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        bad = int(np.argmin(vals))
        raise NonPositiveInitialCurve(
            f"initial curve must be strictly positive; value {vals[bad]:.6g} "
            f"at u={float(np.asarray(nodes)[bad]):.6g}")
    return vals


def constant_curve(level: float) -> InitialCurve:
    """The flat curve f0(T) = level > 0."""
    positive("level", level)
    return InitialCurve(
        func=lambda u: np.full_like(u, level),
        label=f"constant({level})",
        integral=lambda T: level * T,
    )


def affine_curve(intercept: float, slope: float) -> InitialCurve:
    """The line f0(T) = intercept + slope * T."""
    return InitialCurve(
        func=lambda u: intercept + slope * u,
        label=f"affine({intercept}, {slope})",
        integral=lambda T: intercept * T + slope * T ** 2 / 2.0,
    )


def exp_decay_curve(level: float, rate: float) -> InitialCurve:
    """f0(T) = level * exp(-rate * T) with level > 0 and rate >= 0."""
    positive("level", level)
    nonnegative("rate", rate)

    def integral(T):
        if rate == 0.0:
            return level * T
        return level * -np.expm1(-rate * T) / rate

    return InitialCurve(
        func=lambda u: level * np.exp(-rate * u),
        label=f"exp_decay({level}, {rate})",
        integral=integral,
    )


def table_curve(points) -> InitialCurve:
    """Piecewise-linear curve through (u_k, value_k) pairs, flat beyond."""
    pts = sorted((float(u), float(v)) for u, v in points)
    if len(pts) < 2:
        raise DomainError("a tabulated curve needs at least two points")
    us = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(np.diff(us) <= 0.0):
        raise DomainError("tabulated maturities must be strictly increasing")
    # the trapezoid is exact on each linear piece: the antiderivative from
    # the first knot at every knot, then a partial piece or a flat tail
    at_knots = np.concatenate(([0.0], np.cumsum(np.diff(us) * (vs[1:] + vs[:-1])
                                                / 2.0)))

    def antiderivative(x):
        k = np.clip(np.searchsorted(us, x, side="right") - 1, 0, us.size - 1)
        return at_knots[k] + (x - us[k]) * (vs[k] + np.interp(x, us, vs)) / 2.0

    return InitialCurve(
        func=lambda u: np.interp(u, us, vs),
        label=f"table({len(pts)} points)",
        integral=lambda T: antiderivative(T) - antiderivative(0.0),
    )
