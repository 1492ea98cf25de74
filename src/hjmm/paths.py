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
seeds the fixed-point solver.  The jump parts of the two exponentials
cancel, so ln b is c * Lambda(t, T), c the path's drift rate and Lambda
the time integral of lambda, plus one sum of ln(1 + lambda(s_k, T) dL_k)
over the jumps up to t.  Every term is built on lambda's own maturity
width (:meth:`~hjmm.volatility.VolatilitySpec.matrix`): a time-only
lambda is one column, so every maturity carries the same b and the
whole of ln b, its exponential included, is that one column, broadcast
into the stack at the end.

Both stages work on a block of paths: :func:`simulate_paths` draws every
path of a block, each from its own generator, and maps all of the
block's uniforms to jump sizes in one call of the measure family; and
:func:`factor_fields` builds their fields, one log sum per path.  Each
does its per-model and per-grid work once for the block.
:func:`simulate_path` and :func:`field_b` are these on one path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import InitialCurve, require_positive_on
from .errors import DomainError, NonPositiveFactor, UnsupportedSpec, positive
from .grids import GridSpec, _float_array, cumtrapz
from .levy import LevyModelSpec
from .volatility import VolatilitySpec

__all__ = [
    "JumpPath",
    "simulate_path",
    "simulate_paths",
    "factor_fields",
    "field_b",
    "field_a",
    "jump_factor_error",
]


# The most jumps a path may expect (its Poisson mean).  A jump holds a
# time, a uniform and a size, 24 bytes, so a path at this mean draws
# about 400 MB; the heaviest benchmark model expects about 660 jumps.
MAX_MEAN_JUMPS = 1 << 24

# The default truncation level of infinite-activity measures, which a run
# configuration fills in too.
TRUNCATION_EPS = 1e-3


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
        positive("horizon", self.horizon)
        if not math.isfinite(self.drift_rate):
            raise DomainError("drift rate must be finite")
        if times.shape != sizes.shape or times.ndim != 1:
            raise DomainError("times and sizes must be 1-d arrays of equal length")
        # NaN times fail the first test too
        if not np.all((times > 0.0) & (times <= self.horizon)):
            raise DomainError("jump times must lie in (0, horizon]")
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("jump times must be strictly increasing")
        if not np.all(np.isfinite(sizes)) or np.any(sizes == 0.0):
            raise DomainError("jump sizes must be finite and nonzero")

    @property
    def n_jumps(self) -> int:
        return int(self.times.size)


def simulate_paths(spec: LevyModelSpec, t_star: float, seeds,
                   eps: float = TRUNCATION_EPS) -> list[JumpPath]:
    """Simulate a block of driver paths over [0, t_star], one per seed.

    Finite-activity measures are sampled exactly; infinite-activity ones
    are restricted to jumps >= eps, a finite eps > 0 (DomainError
    otherwise), with the drift a - int_eps^1 y nu + int_1^eps y nu (one
    of the two is zero): the jumps below eps are replaced by their mean,
    compensated below 1, so the mean of L(t) is exact at every eps and
    the truncated exponent error is at most z^2 * U(eps) / 2.
    Only drivers with no Gaussian part and positive-only jumps are
    simulable; anything else raises UnsupportedSpec.  A model that
    expects more than MAX_MEAN_JUMPS jumps per path raises DomainError
    (a larger eps draws fewer).

    The spec is checked and the intensity and drift computed once for
    the block.  Each seed keeps its own generator and its draw order
    (count, times, one uniform per size); the sizes of all paths come
    from one :meth:`~hjmm.measures.MeasureFamily.jump_sizes` call, made
    for a block without jumps too, so the family checks eps every time.
    A size depends on its own uniform alone, so a seed yields a
    bitwise-reproducible path in any block.  Seeds may be integers or
    sequences, e.g. (master_seed, path_index) for Monte Carlo ensembles.
    """
    positive("t_star", t_star)
    if spec.gaussian_q != 0.0:
        raise UnsupportedSpec(
            "simulation is restricted to drivers without a Gaussian part")
    measure = spec.measure
    if measure.support()[0] < 0.0:
        raise UnsupportedSpec(
            "simulation is restricted to positive-only jump measures")

    if measure.is_finite_activity:
        intensity = measure.total_mass()
        eps_used = 0.0
    else:
        intensity = measure.tail_mass(positive("truncation level eps", eps))
        eps_used = eps
    if intensity * t_star > MAX_MEAN_JUMPS:
        raise DomainError(
            f"{intensity * t_star:.6g} jumps per path expected, more than "
            f"{MAX_MEAN_JUMPS}; use a larger truncation level eps")

    # uniforms starts empty, so that a block of no seeds concatenates
    counts, times, uniforms = [], [], [np.empty(0)]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.poisson(intensity * t_star)) if intensity > 0.0 else 0
        t = np.sort(rng.uniform(0.0, t_star, size=n)) if n else np.empty(0)
        # Break exact ties (measure zero, but floats can collide).
        if (t[1:] <= t[:-1]).any():
            for k in range(1, t.size):
                if t[k] <= t[k - 1]:
                    t[k] = np.nextafter(t[k - 1], np.inf)
        counts.append(n)
        times.append(t)
        uniforms.append(rng.uniform(size=n))
    sizes = measure.jump_sizes(np.concatenate(uniforms), eps_used)

    drift = (spec.drift_a - measure.first_moment(eps_used, 1.0)
             + measure.first_moment(1.0, eps_used))
    if not math.isfinite(drift):
        raise UnsupportedSpec(
            "small-jump compensator diverges; increase the truncation level")

    ends = itertools.accumulate(counts)
    return [JumpPath(horizon=t_star, drift_rate=drift, times=t,
                     sizes=sizes[end - n:end], truncation_eps=eps_used)
            for t, n, end in zip(times, counts, ends)]


def simulate_path(spec: LevyModelSpec, t_star: float, seed,
                  eps: float = TRUNCATION_EPS) -> JumpPath:
    """Simulate one driver path over [0, t_star]: :func:`simulate_paths`
    on one seed."""
    path, = simulate_paths(spec, t_star, [seed], eps)
    return path


def _log_jump_sums(vol: VolatilitySpec, path: JumpPath,
                   T: np.ndarray) -> np.ndarray:
    """Row m holds the sum of ln(1 + lambda(s_k, T) dL_k) over the path's
    first m jumps, on the maturity nodes ``T``; row 0 is 0.

    The sums have the width of ``vol.matrix``: one column, on ``T[:1]``,
    for a time-only lambda, broadcasting over ``T``.  Raises the
    NonPositiveFactor of the first jump whose factor 1 + lambda*dL is
    zero or below at some node, before any logarithm is taken.
    """
    terms = vol.matrix(path.times, T)
    terms *= path.sizes[:, None]
    nonpositive = (terms <= -1.0).any(axis=1)
    if nonpositive.any():
        raise NonPositiveFactor(
            f"jump at t={path.times[int(np.argmax(nonpositive))]:.6g} drives "
            "a factor 1+lambda*dL to zero or below")
    sums = np.zeros((path.n_jumps + 1, terms.shape[1]))
    np.cumsum(np.log1p(terms, out=terms), axis=0, out=sums[1:])
    return sums


def factor_fields(vol: VolatilitySpec, paths,
                  grid: GridSpec) -> tuple[np.ndarray, list]:
    """The factor fields b(t_i, T_j) of a block of paths.

    Returns the stack of b, shape ``(P, n_t+1, n_cols+1)``, of the paths
    whose jump factors 1 + lambda*dL are all positive, in order, and per
    path None or the NonPositiveFactor of its first jump whose factor is
    zero or below.

    ln b is the path's drift rate c times Lambda(t, T), the time
    integral of lambda, plus one prefix sum over the path's jumps of
    ln(1 + lambda(s_k, T) dL_k), read at the time nodes.  Lambda is
    built once for the block, from the cached lambda on the grid; the
    jump sum is built path by path, so a path's b is bitwise the same in
    any block.  ln b and its exponential have lambda's width, one
    maturity column for a time-only ``vol``, and are broadcast into the
    stack at the end; each column built at full width would be that
    same column, bitwise.
    """
    T, t_nodes = grid.T_nodes(), grid.t_nodes()
    drift_cum = cumtrapz(vol.on_grid(grid), grid.delta, axis=0)
    logs = np.empty((len(paths), *drift_cum.shape))
    faults = []
    kept = 0
    for path in paths:
        try:
            sums = _log_jump_sums(vol, path, T)
        except NonPositiveFactor as fault:
            faults.append(fault)
            continue
        faults.append(None)
        out = logs[kept]
        kept += 1
        np.multiply(drift_cum, path.drift_rate, out=out)
        out += sums[np.searchsorted(path.times, t_nodes, side="right")]
    logs = logs[:kept]
    with np.errstate(over="ignore"):
        np.exp(logs, out=logs)
    return np.broadcast_to(logs, (kept, *grid.shape)).copy(), faults


def jump_factor_error(vol: VolatilitySpec, path: JumpPath,
                      grid: GridSpec) -> float:
    """Largest relative error of the jump factors that the factor field
    carries.

    Across the k-th jump the log sum of :func:`factor_fields` grows by
    ln(1 + a_k), a_k = lambda(s_k, T) dL_k; the exponential of that step
    is compared with 1 + a_k on every maturity node that the sum is built
    on, at lambda's width: the one column of a time-only lambda, else
    all of them.  Only the path and the volatility are read, so the
    error is the rounding of the log1p/cumsum/exp round trip.  Raises NonPositiveFactor as
    :func:`field_b` does.
    """
    T = grid.T_nodes()
    sums = _log_jump_sums(vol, path, T)
    expected = vol.matrix(path.times, T) * path.sizes[:, None] + 1.0
    with np.errstate(over="ignore"):
        ratio = np.exp(np.diff(sums, axis=0))
    return float(np.max(np.abs(ratio - expected) / np.abs(expected),
                        initial=0.0))


def field_b(vol: VolatilitySpec, path: JumpPath, grid: GridSpec) -> np.ndarray:
    """The multiplicative factor b(t_i, T_j) on the grid: :func:`factor_fields`
    on one path.

    Values are strictly positive; raises NonPositiveFactor when a jump
    factor 1 + lambda*dL is zero or below.
    """
    b, (fault,) = factor_fields(vol, [path], grid)
    if fault is not None:
        raise fault
    return b[0]


def field_a(r0: InitialCurve, b_values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """a(t_i, T_j) = f0(T_j) * b(t_i, T_j) for a field b or a stack of
    fields; requires a positive curve, evaluated once."""
    curve = require_positive_on(r0, grid.T_nodes())
    b_values = _float_array(b_values)
    if b_values.ndim != 3 or b_values.shape[1:] != grid.shape:
        grid.check_field(b_values)
    return curve * b_values
