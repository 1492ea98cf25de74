"""Separable linear-volatility specifications.

The relative volatility has the separable form

    lambda(t, x) = sum_n a_n(t) * b_n(t + x)

in gap coordinates, equivalently lambda(t, T) = sum_n a_n(t) * b_n(T) in
standard coordinates, with continuous a_n on [0, t_star] and bounded
differentiable b_n on [0, inf).  Declared bounds 0 < lambda_lower <=
lambda <= lambda_upper and a bound on the maturity derivative are part
of the specification (assumption (A3)).

This module owns the three term kinds (``constant_term``,
``time_affine_term``, ``exp_decay_term``; the time-only kinds share the
maturity factor ``unit_factor``), the one tensor-mesh sum of the terms
and ``sample_bounds``, the one estimate of the (A3) constants: the
sampled minimum and maximum and the sup of |d lambda / dT| by centred
differences.  The config parser derives its bounds with it and
``grid_violations`` checks declared bounds with it.

A specification whose maturity factors are all ``unit_factor`` is
time-only (:attr:`VolatilitySpec.time_only`, read from the terms), and
it alone decides the width of lambda on a mesh: its ``matrix`` and
``on_grid`` hold one maturity column, on the first maturity, that
broadcasts over every maturity, bitwise the values of each column a
full-width mesh would hold.  ``on_grid`` is built once per
specification and grid, cached and read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .grids import _CACHE_SIZE, GridSpec

__all__ = ["VolatilitySpec", "constant_volatility", "time_affine_volatility",
           "grid_violations", "constant_term", "time_affine_term",
           "exp_decay_term", "unit_factor", "sample_bounds"]

Term = tuple[Callable, Callable]


def unit_factor(T):
    """The maturity factor b = 1 of the time-only term kinds."""
    return np.ones_like(np.asarray(T, dtype=float))


def constant_term(level: float) -> Term:
    """The term lambda = level."""
    def a_fn(t):
        return np.full_like(np.asarray(t, dtype=float), level)

    return a_fn, unit_factor


def time_affine_term(intercept: float, slope: float) -> Term:
    """The term lambda(t) = intercept + slope * t."""
    def a_fn(t):
        return intercept + slope * np.asarray(t, dtype=float)

    return a_fn, unit_factor


def exp_decay_term(level: float, rate: float) -> Term:
    """The term lambda(T) = level * exp(-rate * T)."""
    a_fn, _ = constant_term(level)

    def b_fn(T):
        return np.exp(-rate * np.asarray(T, dtype=float))

    return a_fn, b_fn


def _tensor_sum(terms, t_values, T_values) -> np.ndarray:
    """sum_n a_n(t_i) * b_n(T_j) on the tensor mesh, shape (len(t), len(T))."""
    t_values = np.asarray(t_values, dtype=float)
    T_values = np.asarray(T_values, dtype=float)
    total = np.zeros((t_values.size, T_values.size))
    for a_fn, b_fn in terms:
        total += np.outer(np.asarray(a_fn(t_values), dtype=float),
                          np.asarray(b_fn(T_values), dtype=float))
    return total


def sample_bounds(terms, t_values, T_values,
                  h: float) -> tuple[float, float, float]:
    """The (A3) constants of the summed terms sampled on a tensor mesh.

    Returns the minimum and the maximum of lambda on the mesh and the
    largest |d lambda / dT| by centred differences of half-width h.
    """
    values = _tensor_sum(terms, t_values, T_values)
    lo, hi = float(values.min()), float(values.max())
    # in place, so no more than three meshes are alive at a time
    T_values = np.asarray(T_values, dtype=float)
    values = _tensor_sum(terms, t_values, T_values + h)
    values -= _tensor_sum(terms, t_values, T_values - h)
    return lo, hi, float(np.max(np.abs(values, out=values))) / (2 * h)


@dataclass(frozen=True)
class VolatilitySpec:
    """Separable volatility with declared bounds.

    Parameters
    ----------
    terms : pairs (a_n, b_n) of vectorized callables; a_n takes times,
        b_n takes maturities.
    lambda_lower, lambda_upper : declared positive bounds of the values.
    x_derivative_bound : declared bound of |d lambda / dx|.
    """

    terms: tuple[Term, ...]
    lambda_lower: float
    lambda_upper: float
    x_derivative_bound: float = 0.0

    def __post_init__(self) -> None:
        # tuples, so that the specification hashes as the key of on_grid
        object.__setattr__(self, "terms", tuple(map(tuple, self.terms)))
        if not self.terms:
            raise DomainError("at least one separable term is required")
        if not (0.0 < self.lambda_lower <= self.lambda_upper):
            raise DomainError(
                f"need 0 < lambda_lower <= lambda_upper, got "
                f"({self.lambda_lower}, {self.lambda_upper})")
        if not math.isfinite(self.lambda_upper):
            raise DomainError("lambda_upper must be finite")
        if self.x_derivative_bound < 0.0 or not math.isfinite(self.x_derivative_bound):
            raise DomainError(
                f"x_derivative_bound must be finite and >= 0, got "
                f"{self.x_derivative_bound}")

    @property
    def time_only(self) -> bool:
        """lambda depends on time alone: every b_n is ``unit_factor``.

        It sets the width of :meth:`matrix` and :meth:`on_grid`, and the
        d_x identity of the strong-form check holds for such a lambda
        alone.
        """
        return all(b_fn is unit_factor for _, b_fn in self.terms)

    def standard(self, t, T):
        """lambda(t, T), broadcasting over array arguments."""
        t = np.asarray(t, dtype=float)
        T = np.asarray(T, dtype=float)
        total = np.zeros(np.broadcast_shapes(t.shape, T.shape))
        for a_fn, b_fn in self.terms:
            total = total + np.asarray(a_fn(t)) * np.asarray(b_fn(T))
        return total if total.shape else float(total)

    def matrix(self, t_values: np.ndarray, T_values: np.ndarray) -> np.ndarray:
        """Tensor-grid values lambda(t_i, T_j) of shape (len(t), len(T)).

        A time-only lambda gives one column, on ``T_values[:1]``, of shape
        (len(t), 1), that broadcasts over ``T_values``.
        """
        if self.time_only:
            T_values = np.ravel(T_values)[:1]
        return _tensor_sum(self.terms, t_values, T_values)

    @functools.lru_cache(maxsize=_CACHE_SIZE)
    def on_grid(self, grid: GridSpec) -> np.ndarray:
        """lambda on the grid nodes, :meth:`matrix` of the time and
        maturity nodes: built once per specification and grid, read-only."""
        lam = self.matrix(grid.t_nodes(), grid.T_nodes())
        lam.flags.writeable = False
        return lam


def grid_violations(vol: VolatilitySpec, grid: GridSpec) -> list[str]:
    """Check the declared bounds against samples on a refinement of the grid.

    The samples are ``sample_bounds`` on the grid refined four times, with
    half-width delta / 16, the estimate the config parser derives its
    bounds from.  Returns human-readable violation messages; empty when
    all checks pass.
    """
    t = np.linspace(0.0, grid.t_star, 4 * grid.n_t + 1)
    T = np.linspace(0.0, grid.t_max, 4 * grid.n_cols + 1)
    lo, hi, dbound = sample_bounds(vol.terms, t, T, grid.delta / 16.0)
    problems: list[str] = []
    tol = 1e-9 * max(1.0, vol.lambda_upper)
    if lo < vol.lambda_lower - tol:
        problems.append(
            f"volatility drops to {lo:.6g}, below the declared lower bound "
            f"{vol.lambda_lower:.6g}")
    if hi > vol.lambda_upper + tol:
        problems.append(
            f"volatility reaches {hi:.6g}, above the declared upper bound "
            f"{vol.lambda_upper:.6g}")
    if dbound > vol.x_derivative_bound + 1e-6 * max(1.0, dbound):
        problems.append(
            f"gap derivative reaches {dbound:.6g}, above the declared bound "
            f"{vol.x_derivative_bound:.6g}")
    return problems


def constant_volatility(level: float) -> VolatilitySpec:
    """lambda identically equal to ``level``."""
    if level <= 0.0:
        raise DomainError(f"volatility level must be positive, got {level}")
    return VolatilitySpec(terms=(constant_term(level),), lambda_lower=level,
                          lambda_upper=level, x_derivative_bound=0.0)


def time_affine_volatility(intercept: float, slope: float,
                           t_star: float) -> VolatilitySpec:
    """lambda(t) = intercept + slope * t on [0, t_star], maturity-independent."""
    ends = (intercept, intercept + slope * t_star)
    lo, hi = min(ends), max(ends)
    if lo <= 0.0:
        raise DomainError(
            f"affine volatility must stay positive on [0, {t_star}], "
            f"reaches {lo:.6g}")
    return VolatilitySpec(terms=(time_affine_term(intercept, slope),),
                          lambda_lower=lo, lambda_upper=hi,
                          x_derivative_bound=0.0)
