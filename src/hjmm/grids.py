"""Uniform space-time grids and discrete forward-rate fields.

Fields are stored in standard coordinates on the rectangle
[0, t_star] x [0, t_max] with a common step delta, so the node set of the
time axis is a prefix of the maturity axis and Musiela slices
r(t_i, x) = f(t_i, t_i + x) are plain diagonal re-indexings.  Below the
diagonal (t > T) fields carry the flat extension f(t, T) = f(T, T), which
is what the discounted-bond identity uses.

The grid owns its triangle.  The field shape is checked by
:meth:`GridSpec.check_field` alone, and that a field is a
:class:`RateField` on a given grid by ``_require_on_grid`` alone.  The
mask of the below-diagonal cells of a field shape (:func:`below_diagonal`)
and the slice L2 weights of a grid (:func:`slice_weights`) are built
once per shape and grid, cached and read-only, and no other module
builds a triangle index or mask.
:func:`flat_extend` and the bond prices fill the masked cells with one
masked copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer, positive

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


def _float_array(values) -> np.ndarray:
    """``values`` as a float array, uncopied if it is one; DomainError for
    what numpy cannot read as one, a ragged nested list say."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"field must be a numeric array: {exc}") from exc


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
        for name in ("delta", "t_star", "t_max", "gamma"):
            positive(name, getattr(self, name))
        if self.t_max < self.t_star:
            raise DomainError(
                f"t_max ({self.t_max}) must be >= t_star ({self.t_star})")
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

    def check_field(self, values) -> np.ndarray:
        """``values`` as a float array, if it has the grid's field shape;
        else DomainError.  A float array passes through uncopied."""
        values = _float_array(values)
        if values.shape != self.shape:
            raise DomainError(
                f"field shape {values.shape} does not match grid {self.shape}")
        return values

    def t_nodes(self) -> np.ndarray:
        return self.delta * np.arange(self.n_t + 1)

    def T_nodes(self) -> np.ndarray:
        return self.delta * np.arange(self.n_cols + 1)

    def _node_index(self, value: float, last: int, what: str) -> int:
        """The index k in [0, last] of the node k delta at ``value``."""
        steps = value / self.delta
        k = round(steps) if math.isfinite(steps) else -1
        if not 0 <= k <= last or abs(k * self.delta - value) > 1e-9:
            raise DomainError(f"{what} {value} is not a grid node")
        return k

    def index_of_time(self, t: float) -> int:
        return self._node_index(t, self.n_t, "time")

    def index_of_maturity(self, T: float) -> int:
        return self._node_index(T, self.n_cols, "maturity")

    def refine(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.delta / integer("factor", factor, 1), self.t_star,
                        self.t_max, self.gamma)


def cumtrapz(values: np.ndarray, dx: float, axis: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid sums with step dx along ``axis``, from 0.

    ``axis`` is any axis of ``values``: 0 or -2 is the time axis of a
    field or of a stack of fields, 1 or -1 the maturity axis.  Each lane
    is summed on its own, so a field gives the same sums alone and
    stacked.  The sums go into ``out`` if given (C-contiguous, not
    ``values`` itself); a ``values`` that is not C-contiguous is copied.

    The pairwise sums and their scaling run on the flat buffers, each
    cell paired with the one a lane stride before it, where numpy's
    ufuncs need no buffered iterator; the cells at index 0 of ``axis``,
    which pair the ends of two lanes, are then overwritten with 0.
    """
    axis %= values.ndim
    lead = (slice(None),) * axis
    values = np.ascontiguousarray(values)
    out = np.empty_like(values) if out is None else out
    _half_pair_sums(values.reshape(-1), math.prod(values.shape[axis + 1:]),
                    0.5 * dx, out.reshape(-1))
    steps = out[lead + (slice(1, None),)]
    np.cumsum(steps, axis=axis, out=steps)
    out[lead + (0,)] = 0.0
    return out


@np.errstate(all="ignore")
def _half_pair_sums(flat: np.ndarray, stride: int, half_dx: float,
                    out: np.ndarray) -> None:
    """half_dx * (flat[k] + flat[k - stride]) into out[k], k >= stride.

    Floating-point warnings are off: a pair that straddles two lanes,
    which :func:`cumtrapz` overwrites, may overflow or give inf - inf
    where no lane does.  A pair within a lane that overflows still reads
    inf, unwarned.
    """
    steps = out[stride:]
    np.add(flat[stride:], flat[:-stride], out=steps)
    np.multiply(half_dx, steps, out=steps)


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
def below_diagonal(shape: tuple[int, int]) -> np.ndarray:
    """The mask of the cells (i, j) with i > j, read-only: true on them
    and false on and above the diagonal."""
    mask = np.tri(*shape, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


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
    ``out`` if given, which may be ``values`` itself.  A below-diagonal
    cell (i, j) lies in the leading square block, columns j < n_rows, so
    one masked copy of that block's diagonal, broadcast down the rows,
    fills them all.
    """
    if out is None:
        out = np.array(values, dtype=float, copy=True)
    elif out is not values:
        out[...] = values
    square = out[..., :out.shape[-2]]
    # a copy, so that the source does not overlap the cells written
    diagonal = np.diagonal(square, axis1=-2, axis2=-1).copy()
    np.copyto(square, diagonal[..., None, :],
              where=below_diagonal(out.shape[-2:])[:, :square.shape[-1]])
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
        self.values = self.grid.check_field(self.values)

    def musiela_slice(self, i: int) -> np.ndarray:
        """r(t_i, x) over the truncated gap range x in [0, t_max - t_i]."""
        return self.values[i, i:]

    def x_nodes(self, i: int) -> np.ndarray:
        return self.grid.delta * np.arange(self.grid.n_cols - i + 1)

    def short_rates(self) -> np.ndarray:
        """r(t_i) = f(t_i, t_i) along the diagonal."""
        return np.diagonal(self.values).copy()


def _require_on_grid(field, grid: GridSpec, name: str) -> RateField:
    """``field``, if it is a RateField on ``grid``; else DomainError."""
    if not isinstance(field, RateField) or field.grid != grid:
        raise DomainError(f"{name} must be a RateField on the supplied grid")
    return field
