"""Uniform space-time grids and discrete forward-rate fields.

Fields are stored in standard coordinates on the rectangle
[0, t_star] x [0, t_max] with a common step delta, so the node set of the
time axis is a prefix of the maturity axis and Musiela slices
r(t_i, x) = f(t_i, t_i + x) are plain diagonal re-indexings.  Below the
diagonal (t > T) fields carry the flat extension f(t, T) = f(T, T), which
is what the discounted-bond identity uses.

The grid owns its triangle.  The field shape is checked by
:meth:`GridSpec.check_field` alone; the below-diagonal cells of a field
shape (:func:`below_diagonal`) and the slice L2 weights of a grid
(:func:`slice_weights`) are built once per shape and grid, cached and
read-only, and no other module builds a triangle index or mask.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GridSpec", "RateField"]

# grids kept at once: a run uses one, the strong-residual suite adds its
# refinement, and the rest is room for callers that switch grids
_CACHE_SIZE = 8


def _divisible(total: float, step: float) -> int:
    n = round(total / step)
    if n < 1 or abs(n * step - total) > 1e-9 * max(1.0, abs(total)):
        raise DomainError(
            f"step {step} must divide horizon {total} into whole panels")
    return n


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid parameters.

    Parameters
    ----------
    delta : common step of the time and maturity axes.
    t_star : time horizon (rows run over [0, t_star]).
    t_max : maturity horizon (columns run over [0, t_max]), >= t_star.
    gamma : exponential weight of the maturity norms.
    """

    delta: float
    t_star: float
    t_max: float
    gamma: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or not math.isfinite(self.delta):
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.t_star <= 0.0:
            raise DomainError(f"t_star must be positive, got {self.t_star}")
        if self.t_max < self.t_star:
            raise DomainError(
                f"t_max ({self.t_max}) must be >= t_star ({self.t_star})")
        if self.gamma <= 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        _divisible(self.t_star, self.delta)
        _divisible(self.t_max, self.delta)

    @property
    def n_t(self) -> int:
        return round(self.t_star / self.delta)

    @property
    def n_cols(self) -> int:
        return round(self.t_max / self.delta)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a field on the grid: time nodes by maturity nodes."""
        return (self.n_t + 1, self.n_cols + 1)

    def check_field(self, values: np.ndarray) -> np.ndarray:
        """``values``, if it has the grid's field shape; else DomainError."""
        if values.shape != self.shape:
            raise DomainError(
                f"field shape {values.shape} does not match grid {self.shape}")
        return values

    def t_nodes(self) -> np.ndarray:
        return self.delta * np.arange(self.n_t + 1)

    def T_nodes(self) -> np.ndarray:
        return self.delta * np.arange(self.n_cols + 1)

    def index_of_time(self, t: float) -> int:
        i = round(t / self.delta)
        if not 0 <= i <= self.n_t or abs(i * self.delta - t) > 1e-9:
            raise DomainError(f"time {t} is not a grid node")
        return i

    def index_of_maturity(self, T: float) -> int:
        j = round(T / self.delta)
        if not 0 <= j <= self.n_cols or abs(j * self.delta - T) > 1e-9:
            raise DomainError(f"maturity {T} is not a grid node")
        return j

    def refine(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.delta / factor, self.t_star, self.t_max, self.gamma)


def cumtrapz(values: np.ndarray, dx: float, axis: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid sums with step dx along ``axis``, from 0.

    ``axis`` is any axis of ``values``: 0 or -2 is the time axis of a
    field or of a stack of fields, 1 or -1 the maturity axis.  Each lane
    is summed on its own, so a field gives the same sums alone and
    stacked.  The sums go into ``out`` if given (not ``values`` itself).
    """
    axis %= values.ndim
    lead = (slice(None),) * axis
    out = np.empty_like(values) if out is None else out
    steps = out[lead + (slice(1, None),)]
    np.add(values[lead + (slice(1, None),)], values[lead + (slice(None, -1),)],
           out=steps)
    np.multiply(0.5 * dx, steps, out=steps)
    np.cumsum(steps, axis=axis, out=steps)
    out[lead + (0,)] = 0.0
    return out


def gap_integral(values: np.ndarray, dx: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """int_{T_i}^{T_j} values(t_i, u) du per cell (i, j), clipped at 0.

    The lower limit is the diagonal node T_i = t_i of each row, so the
    result is the integral over the gap x = T_j - t_i, and zero below the
    diagonal.  Works on the last two axes, so on a stack of fields too;
    the result goes into ``out`` if given (not ``values`` itself).
    """
    inner = cumtrapz(values, dx, axis=-1, out=out)
    np.subtract(inner, np.diagonal(inner, axis1=-2, axis2=-1).copy()[..., None],
                out=inner)
    np.maximum(inner, 0.0, out=inner)
    return inner


@functools.lru_cache(maxsize=_CACHE_SIZE)
def below_diagonal(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """``(rows, cols, mask)`` of the cells (i, j) with i > j, read-only.

    ``rows`` and ``cols`` list the cells in row-major order; ``mask`` is
    true on them and false on and above the diagonal.
    """
    mask = np.tri(*shape, -1, dtype=bool)
    cells = (*np.nonzero(mask), mask)
    for arr in cells:
        arr.flags.writeable = False
    return cells


@functools.lru_cache(maxsize=_CACHE_SIZE)
def slice_weights(grid: GridSpec) -> np.ndarray:
    """Weight of cell (i, j) in the slice L2 norm of row i, read-only.

    The trapezoid weight of the gap x = (j - i) delta times e^{gamma x},
    zero below the diagonal; a one-node slice (i = n_cols) weighs nothing.
    """
    gap = np.arange(grid.n_cols + 1) - np.arange(grid.n_t + 1)[:, None]
    weight = np.where(gap >= 0, grid.delta
                      * np.exp(grid.gamma * (grid.delta * gap)), 0.0)
    weight[gap == 0] *= 0.5
    weight[:, -1] *= 0.5
    weight[grid.n_cols:] = 0.0
    weight.flags.writeable = False
    return weight


def flat_extend(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Copy values and overwrite the below-diagonal cells with f(T, T).

    Works on the last two axes, so on a stack of fields too.  The copy is
    ``out`` if given, which may be ``values`` itself.
    """
    if out is None:
        out = np.array(values, dtype=float, copy=True)
    elif out is not values:
        out[...] = values
    rows, cols, _ = below_diagonal(out.shape[-2:])
    out[..., rows, cols] = out[..., cols, cols]
    return out


@dataclass(eq=False)
class RateField:
    """Forward rates f(t_i, T_j) on a :class:`GridSpec` rectangle.

    ``values[i, j]`` holds f at time node i and maturity node j; below the
    diagonal the values carry the flat extension f(t, T) = f(T, T).
    """

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        self.grid.check_field(self.values)

    @classmethod
    def from_triangle(cls, values: np.ndarray, grid: GridSpec) -> "RateField":
        """Build a field from upper-triangle values, applying the extension."""
        return cls(flat_extend(values), grid)

    def musiela_slice(self, i: int) -> np.ndarray:
        """r(t_i, x) over the truncated gap range x in [0, t_max - t_i]."""
        return self.values[i, i:]

    def x_nodes(self, i: int) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.n_cols - i + 1)

    def short_rates(self) -> np.ndarray:
        """r(t_i) = f(t_i, t_i) along the diagonal."""
        return np.diagonal(self.values).copy()

    def sup_distance(self, other: "RateField") -> float:
        return float(np.max(np.abs(self.values - other.values)))

    def extension_defect(self) -> float:
        """Max deviation of below-diagonal cells from their diagonal value, or NaN."""
        rows, cols, _ = below_diagonal(self.values.shape)
        return float(np.max(np.abs(self.values[rows, cols]
                                   - self.values[cols, cols]), initial=0.0))
