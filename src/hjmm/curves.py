"""Initial forward-curve families.

An initial curve maps the maturity u >= 0 to the starting forward rate
f(0, u); it must be strictly positive.  The tabulated family interpolates
linearly and extends flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonPositiveInitialCurve

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
    """Initial forward curve: a vectorized function of the maturity."""

    func: Callable
    label: str = ""

    def __call__(self, u):
        return self.func(np.asarray(u, dtype=float))


def require_positive_on(curve: InitialCurve, nodes: np.ndarray) -> None:
    """Raise NonPositiveInitialCurve unless the curve is > 0 at all nodes."""
    vals = np.asarray(curve(nodes), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        bad = int(np.argmin(vals))
        raise NonPositiveInitialCurve(
            f"initial curve must be strictly positive; value {vals[bad]:.6g} "
            f"at u={float(np.asarray(nodes)[bad]):.6g}")


def constant_curve(level: float) -> InitialCurve:
    """The flat curve f0(T) = level > 0."""
    if level <= 0.0:
        raise DomainError(f"curve level must be positive, got {level}")
    return InitialCurve(
        func=lambda u: np.full_like(u, level),
        label=f"constant({level})",
    )


def affine_curve(intercept: float, slope: float) -> InitialCurve:
    """The line f0(T) = intercept + slope * T."""
    return InitialCurve(
        func=lambda u: intercept + slope * u,
        label=f"affine({intercept}, {slope})",
    )


def exp_decay_curve(level: float, rate: float) -> InitialCurve:
    """f0(T) = level * exp(-rate * T) with level > 0 and rate >= 0."""
    if level <= 0.0:
        raise DomainError(f"curve level must be positive, got {level}")
    if rate < 0.0:
        raise DomainError(f"decay rate must be >= 0, got {rate}")
    return InitialCurve(
        func=lambda u: level * np.exp(-rate * u),
        label=f"exp_decay({level}, {rate})",
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
    return InitialCurve(
        func=lambda u: np.interp(u, us, vs),
        label=f"table({len(pts)} points)",
    )
