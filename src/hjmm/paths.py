"""Jump-path simulation and the stochastic factor fields.

A realized driver path over [0, t_star] is stored as a deterministic
drift rate plus an ordered list of jumps.  Finite-activity measures are
sampled exactly as compound Poisson processes; infinite-activity measures
are truncated at a level eps > 0, the removed small jumps being absorbed
into the drift so that the pathwise Laplace exponent matches the exact one
up to z^2 * U(eps) / 2.

From a path, the multiplicative jump factor field

    b(t, T) = exp( int_0^t lambda(s, T) dL(s) )
              * prod_{s_k <= t} (1 + lambda(s_k, T) dL_k) exp(-lambda(s_k, T) dL_k)

is assembled on the grid (the Gaussian part is zero for every simulable
model, so no quadratic correction appears), and a(t, T) = f0(T) * b(t, T)
seeds the fixed-point solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import InitialCurve, require_positive_on
from .errors import (DomainError, NonPositiveFactor, UnsupportedSpec)
from .grids import GridSpec, cumtrapz
from .levy import LevyModelSpec
from .volatility import VolatilitySpec

__all__ = [
    "JumpPath",
    "simulate_path",
    "field_b",
    "field_a",
]


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One realized driver path: drift plus finitely many jumps.

    ``times`` are strictly increasing in (0, horizon]; ``sizes`` are the
    jump heights.  ``truncation_eps`` records the truncation level used
    (0 for exactly-sampled finite-activity paths).
    """

    horizon: float
    drift_rate: float
    times: np.ndarray
    sizes: np.ndarray
    truncation_eps: float = 0.0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if not math.isfinite(self.drift_rate):
            raise DomainError("drift rate must be finite")
        if times.shape != sizes.shape or times.ndim != 1:
            raise DomainError("times and sizes must be 1-d arrays of equal length")
        if times.size:
            if times[0] <= 0.0 or times[-1] > self.horizon:
                raise DomainError("jump times must lie in (0, horizon]")
            if np.any(np.diff(times) <= 0.0):
                raise DomainError("jump times must be strictly increasing")
            if not np.all(np.isfinite(sizes)) or np.any(sizes == 0.0):
                raise DomainError("jump sizes must be finite and nonzero")

    @property
    def n_jumps(self) -> int:
        return int(self.times.size)

    def value_at(self, t: float) -> float:
        """L(t) = drift_rate * t + sum of jumps up to and including t."""
        k = int(np.searchsorted(self.times, t, side="right"))
        return self.drift_rate * t + float(self.sizes[:k].sum())


def simulate_path(spec: LevyModelSpec, t_star: float, seed,
                  eps: float = 1e-3) -> JumpPath:
    """Simulate one driver path over [0, t_star].

    Finite-activity measures are sampled exactly; infinite-activity ones
    are restricted to jumps >= eps, with the drift adjusted by the removed
    mean so the truncated exponent error is at most z^2 * U(eps) / 2.
    Only drivers with no Gaussian part and positive-only jumps are
    simulable; anything else raises UnsupportedSpec.

    The draw order (count, times, sizes) is fixed, so a given seed yields
    a bitwise-reproducible path.  Seeds may be integers or sequences, e.g.
    (master_seed, path_index) for Monte Carlo ensembles.
    """
    if t_star <= 0.0 or not math.isfinite(t_star):
        raise DomainError(f"t_star must be positive, got {t_star}")
    if spec.gaussian_q != 0.0:
        raise UnsupportedSpec(
            "simulation is restricted to drivers without a Gaussian part")
    measure = spec.measure
    if measure.support()[0] < 0.0:
        raise UnsupportedSpec(
            "simulation is restricted to positive-only jump measures")

    rng = np.random.default_rng(seed)
    if measure.is_finite_activity:
        intensity = measure.total_mass()
        eps_used = 0.0
    else:
        if eps <= 0.0:
            raise DomainError(
                "infinite-activity measures need a truncation level eps > 0")
        intensity = measure.tail_mass(eps)
        eps_used = eps

    n = int(rng.poisson(intensity * t_star)) if intensity > 0.0 else 0
    times = np.sort(rng.uniform(0.0, t_star, size=n)) if n else np.empty(0)
    # Break exact ties (measure zero, but floats can collide).
    for k in range(1, times.size):
        if times[k] <= times[k - 1]:
            times[k] = np.nextafter(times[k - 1], np.inf)
    sizes = measure.sample_sizes(rng, n, eps_used) if n else np.empty(0)

    drift = spec.drift_a - measure.first_moment(eps_used, 1.0)
    if not math.isfinite(drift):
        raise UnsupportedSpec(
            "small-jump compensator diverges; increase the truncation level")

    return JumpPath(horizon=t_star, drift_rate=drift, times=times, sizes=sizes,
                    truncation_eps=eps_used)


def _jump_prefixes(vol: VolatilitySpec, path: JumpPath,
                   grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefix sums over jumps of lambda*dL and ln(1+lambda*dL) - lambda*dL.

    Returns (row_index, stoch_prefix, corr_prefix) where prefix m covers the
    first m jumps; raises NonPositiveFactor if any factor 1+lambda*dL <= 0.
    """
    T = grid.T_nodes()
    n_jumps = path.n_jumps
    stoch = np.zeros((n_jumps + 1, T.size))
    corr = np.zeros((n_jumps + 1, T.size))
    if n_jumps:
        lam = vol.matrix(path.times, T)
        a = lam * path.sizes[:, None]
        if np.any(a <= -1.0):
            k = int(np.argwhere(a <= -1.0)[0][0])
            raise NonPositiveFactor(
                f"jump at t={path.times[k]:.6g} drives a factor 1+lambda*dL "
                "to zero or below")
        stoch[1:] = np.cumsum(a, axis=0)
        corr[1:] = np.cumsum(np.log1p(a) - a, axis=0)
    counts = np.searchsorted(path.times, grid.t_nodes(), side="right")
    return counts, stoch, corr


def field_b(vol: VolatilitySpec, path: JumpPath, grid: GridSpec) -> np.ndarray:
    """The multiplicative factor b(t_i, T_j) on the grid.

    Assembled as exp(stochastic integral) times the compensated jump
    product; the two jump exponentials are mathematically inverse and are
    kept separate here (the cancellation is exercised by tests, not
    assumed).  Values are strictly positive.
    """
    lam = vol.on_grid(grid)
    drift_cum = cumtrapz(lam, grid.delta, axis=0) * path.drift_rate
    counts, stoch, corr = _jump_prefixes(vol, path, grid)
    exponent = drift_cum + stoch[counts] + corr[counts]
    with np.errstate(over="ignore"):
        return np.exp(exponent)


def field_a(r0: InitialCurve, b_values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """a(t_i, T_j) = f0(T_j) * b(t_i, T_j); requires a positive curve."""
    curve = require_positive_on(r0, grid.T_nodes())
    return curve[None, :] * grid.check_field(b_values)
