"""Fixed-point solver for the forward-rate operator equation.

The mild solution of the forward-rate equation with linear volatility
solves, in standard coordinates on the triangle 0 <= s <= t <= T,

    f(t, T) = a(t, T) * exp( int_0^t J'( int_s^T lambda(s, u) f(s, u) du )
                              * lambda(s, T) ds ),

where a = f0 * b is the initial curve times the realized jump factor.
The right-hand side is monotone in f, so iterating from the zero field
produces a pointwise nondecreasing sequence that either converges to the
minimal solution or blows up; both outcomes are reported.

All quadratures are composite trapezoid on the uniform grid; J' is
evaluated through the vectorized route of the measure family, which for
the stable-like and user densities is one fixed rule in ln y whose J' is
read from one cubic Hermite table per measure (within 1e-10 of the
rule's J', relative, absolute below |J'| = 1; see
:func:`hjmm.levy.fast_derivative`).
The grid owns its triangle: the below-diagonal cells and the slice L2
weights come from :mod:`hjmm.grids`, built once per grid shape.  One
iteration loop works on a stack of a-fields, shape
``(P, n_t+1, n_cols+1)``, with lambda on the grid (cached by
:meth:`~hjmm.volatility.VolatilitySpec.on_grid`, at its own width) and
J' set up once per stack; a path leaves the stack when it converges or
explodes.  The first iterate from the zero start,
K(0) = a * exp(int_0^t J'(0) lambda ds), multiplies each a-field by one
exponential that the whole stack shares, built at lambda's width: one
maturity column when lambda depends on time alone.  Every step acts on
each path's cells alone, so a path's report is bitwise the same in any
stack: :func:`solve_fixed_point` is the loop on a stack of one and
:func:`apply_K` one step of it.

:func:`solve_paths` is the pipeline that ``hjmm solve``, ``hjmm verify``
and the martingale Monte Carlo share: simulate a block of jump paths,
build the factor fields b and a = f0 * b, solve them stacked.
:func:`solve_path` is that pipeline on one path.  At DEBUG level it
logs one record per iteration of each path and one per path to the
``hjmm.solver`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .curves import InitialCurve
from .errors import DomainError, NonPositiveFactor, SecondMomentInfinite
from .grids import (GridSpec, RateField, below_diagonal, cumtrapz,
                    flat_extend, gap_integral, slice_weights)
from .levy import LevyModelSpec, fast_derivative
from .paths import (JumpPath, factor_fields, field_a, jump_factor_error,
                    simulate_paths)
from .volatility import VolatilitySpec

__all__ = [
    "SolverReport",
    "NormTriple",
    "apply_K",
    "solve_fixed_point",
    "solve_path",
    "solve_paths",
    "weighted_norms",
    "timeline_norm",
    "apriori_bound",
    "ContractionReport",
    "uniqueness_contraction_check",
    "StrongResidualReport",
    "strong_residual",
]

STATUS_CONVERGED = "Converged"
STATUS_EXPLODED = "Exploded"
STATUS_MAX_ITER = "MaxIterations"

log = logging.getLogger(__name__)


def _operator(vol: VolatilitySpec, spec: LevyModelSpec, grid: GridSpec):
    """The operator f -> a * exp(...) on a stack of fields and their a-fields.

    lambda on the grid, at full width and contiguous, and J' are set up
    once, for every iteration of every path of the stack.  Returns
    ``(apply, apply_zero)``.  ``apply(values, a_fields, out, work)``
    writes K of each field into ``out``, using ``work`` (same shape) as
    scratch; each path's cells depend on that path alone.
    ``apply_zero(a_fields, out)`` writes K(0) of each a-field: the gap
    integral of the zero field is zero in every cell, so its exponential
    is one field that every path shares, built once at lambda's width,
    one maturity column when lambda is time-only.  Cell by cell it
    evaluates what ``apply`` does on zeros, so K(0) is bitwise the same
    by either route.
    """
    lam = vol.on_grid(grid)
    # the products over the stack run faster on a contiguous full-width
    # lambda than on a broadcast column
    full = np.ascontiguousarray(np.broadcast_to(lam, grid.shape))
    dj = fast_derivative(spec, 1)

    def apply(values, a_fields, out, work) -> np.ndarray:
        # once a path blows up, exp overflows to inf, and where a row
        # integral has overflowed, inf - inf in gap_integral gives NaN;
        # _timeline_norms reads such a field as having an infinite norm,
        # so the solve stops that path as Exploded
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            inner = gap_integral(np.multiply(full, values, out=work),
                                 grid.delta, out=out)
            slopes = dj(inner)
            outer = cumtrapz(np.multiply(slopes, full, out=slopes), grid.delta,
                             axis=-2, out=work)
            np.multiply(a_fields, np.exp(outer, out=outer), out=out)
        return flat_extend(out, out=out)

    def apply_zero(a_fields, out) -> np.ndarray:
        # as in apply: exp can overflow, and an overflowed a-field times
        # an underflowed factor is NaN
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            slopes = dj(np.zeros(lam.shape))
            outer = cumtrapz(np.multiply(slopes, lam, out=slopes),
                             grid.delta, axis=-2)
            np.multiply(a_fields, np.exp(outer, out=outer), out=out)
        return flat_extend(out, out=out)

    return apply, apply_zero


def _require_on_grid(field, grid: GridSpec, name: str) -> RateField:
    """``field``, if it is a RateField on ``grid``; else DomainError."""
    if not isinstance(field, RateField) or field.grid != grid:
        raise DomainError(f"{name} must be a RateField on the supplied grid")
    return field


def apply_K(field: RateField, a_field: np.ndarray, vol: VolatilitySpec,
            spec: LevyModelSpec, grid: GridSpec) -> RateField:
    """One step of the fixed-point operator.

    Monotone: pointwise larger inputs give pointwise larger outputs (J' is
    nondecreasing).  Output values below the diagonal carry the flat
    extension, like every :class:`RateField`.  ``field`` must be a
    RateField on ``grid`` (DomainError otherwise).
    """
    field = _require_on_grid(field, grid, "field")
    a_field = np.asarray(grid.check_field(a_field), dtype=float)[None]
    apply, _ = _operator(vol, spec, grid)
    new = apply(field.values[None], a_field, np.empty_like(a_field),
                np.empty_like(a_field))
    return RateField(new[0], grid)


@dataclass
class SolverReport:
    """Outcome of a fixed-point solve."""

    status: str
    iterations: int
    sup_diffs: list
    norm_trace: list
    increment_mins: list
    final_field: RateField

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def solve_fixed_point(a_field: np.ndarray, vol: VolatilitySpec,
                      spec: LevyModelSpec, grid: GridSpec,
                      **solver) -> SolverReport:
    """Iterate the operator to a fixed point, starting from zero.

    Stops Converged when the sup difference of consecutive iterates falls
    below ``tol`` (default 1e-9); stops Exploded as soon as the timeline
    weighted norm exceeds ``explosion_threshold`` (default 1e8) or turns
    non-finite; reports MaxIterations after ``max_iter`` (default 200)
    iterations otherwise.  ``initial`` (a RateField on ``grid``, else
    DomainError) replaces the zero start.  This is the stacked iteration
    of :func:`solve_paths` on a stack of one field.  The a-priori norm
    bound is a separate computation, :func:`apriori_bound`.
    """
    a_field = np.asarray(grid.check_field(a_field), dtype=float)
    return _solve_stack(a_field[None], vol, spec, grid, **solver)[0]


def _solve_stack(a_fields: np.ndarray, vol: VolatilitySpec,
                 spec: LevyModelSpec, grid: GridSpec, *, tol: float = 1e-9,
                 max_iter: int = 200, explosion_threshold: float = 1e8,
                 initial: RateField | None = None) -> list[SolverReport]:
    """The fixed-point iteration on a stack of a-fields, one report each.

    Every path iterates from ``initial`` (zero if None) until it stops;
    from zero, iteration 1 is K(0), built from the exponential that every
    path shares.  A Converged or Exploded path leaves the stack and the others
    run on without it, in the leading part of the same buffers.  Each
    report is bitwise the report of that path's field solved alone.
    """
    if tol <= 0.0 or max_iter < 1 or explosion_threshold <= 0.0:
        raise DomainError("tol, max_iter and explosion_threshold must be positive")
    apply, apply_zero = _operator(vol, spec, grid)
    a_fields = np.array(a_fields, dtype=float)
    current = np.zeros_like(a_fields)
    if initial is not None:
        current[...] = _require_on_grid(initial, grid, "initial").values
    new, work = np.empty_like(a_fields), np.empty_like(a_fields)
    # per path: sup_diffs, norm_trace, increment_mins
    traces = [([], [], []) for _ in range(len(a_fields))]
    reports: list = [None] * len(a_fields)
    active = np.arange(len(a_fields))

    def report(p: int, status: str, iterations: int,
               values: np.ndarray) -> SolverReport:
        sup_diffs, norm_trace, increment_mins = traces[p]
        return SolverReport(status=status, iterations=iterations,
                            sup_diffs=sup_diffs, norm_trace=norm_trace,
                            increment_mins=increment_mins,
                            final_field=RateField(values.copy(), grid))

    for iterations in range(1, max_iter + 1):
        m = active.size
        if iterations == 1 and initial is None:
            apply_zero(a_fields[:m], new[:m])
        else:
            apply(current[:m], a_fields[:m], new[:m], work[:m])
        current, new = new, current
        diff = np.subtract(current[:m], new[:m], out=work[:m]).reshape(m, -1)
        # an exploding iterate can hold inf and NaN cells (see _operator);
        # fmin and fmax skip the NaNs, and the infinite timeline norm
        # stops the path as Exploded
        with np.errstate(invalid="ignore"):
            mins = np.fmin.reduce(diff, axis=1).tolist()
            sups = np.fmax.reduce(np.abs(diff, out=diff), axis=1).tolist()
        norms = _timeline_norms(current[:m], grid, work[:m])
        keep = []
        for k, p in enumerate(active.tolist()):
            sup_diffs, norm_trace, increment_mins = traces[p]
            sup_diffs.append(sups[k])
            norm_trace.append(norms[k])
            increment_mins.append(mins[k])
            if not math.isfinite(norms[k]) or norms[k] > explosion_threshold:
                reports[p] = report(p, STATUS_EXPLODED, iterations, current[k])
            elif sups[k] < tol:
                reports[p] = report(p, STATUS_CONVERGED, iterations, current[k])
            else:
                keep.append(k)
        if len(keep) < m:
            active = active[keep]
            for stack in (current, a_fields):
                stack[:len(keep)] = stack[:m][keep]
            if not keep:
                break
    for k, p in enumerate(active):
        reports[p] = report(p, STATUS_MAX_ITER, max_iter, current[k])
    return reports


def solve_paths(spec: LevyModelSpec, vol: VolatilitySpec, curve: InitialCurve,
                grid: GridSpec, seeds, eps: float, **solver) -> list:
    """The pipeline on a block of paths: simulate, build b and a, solve.

    Each stage runs once for the block: :func:`~hjmm.paths.simulate_paths`
    over [0, t_star] (so every grid with the same horizon sees the same
    jumps), :func:`~hjmm.paths.factor_fields`, :func:`~hjmm.paths.field_a`
    on the stack of positive factor fields, and one stacked fixed-point
    iteration; lambda on the grid is built once per specification and
    grid and cached (:meth:`~hjmm.volatility.VolatilitySpec.on_grid`), so
    the factor fields, the iteration and every later block read the same
    array; ``solver`` holds the keyword arguments of
    :func:`solve_fixed_point`.  Returns one entry per seed, in order:
    ``(path, b, a, report)``, or the NonPositiveFactor that a jump of the
    path raised.  Each entry is bitwise the one of that seed alone, so
    results do not depend on how seeds are grouped into blocks.

    At DEBUG level it logs, per path, one record per iteration (sup_diff,
    norm, min increment, read from the report's traces) and then one
    record for the path.
    """
    seeds = list(seeds)
    paths = simulate_paths(spec, grid.t_star, seeds, eps)
    b_stack, faults = factor_fields(vol, paths, grid)
    solved = iter(())
    if len(b_stack):
        a_stack = field_a(curve, b_stack, grid)
        solved = zip(b_stack, a_stack,
                     _solve_stack(a_stack, vol, spec, grid, **solver))
    debug = log.isEnabledFor(logging.DEBUG)
    out = []
    for seed, path, fault in zip(seeds, paths, faults):
        entry = fault if fault is not None else (path, *next(solved))
        out.append(entry)
        if debug:
            _log_path(seed, path, entry)
    return out


def _log_path(seed, path: JumpPath, entry) -> None:
    """The DEBUG records of one path of :func:`solve_paths`."""
    if isinstance(entry, NonPositiveFactor):
        log.debug("path %s: %d jumps, NonPositiveFactor", seed, path.n_jumps)
        return
    report = entry[3]
    for k, (sup, norm, low) in enumerate(zip(
            report.sup_diffs, report.norm_trace, report.increment_mins), 1):
        log.debug("path %s iteration %d: sup_diff %r, norm %r, "
                  "min increment %r", seed, k, sup, norm, low)
    log.debug("path %s: %d jumps, %s after %d iterations", seed,
              path.n_jumps, report.status, report.iterations)


def solve_path(spec: LevyModelSpec, vol: VolatilitySpec, curve: InitialCurve,
               grid: GridSpec, seed, eps: float, **solver):
    """One path of the pipeline: :func:`solve_paths` on one seed.

    Returns ``(path, b, a, report)``; raises NonPositiveFactor when a jump
    makes the factor field non-positive.
    """
    entry, = solve_paths(spec, vol, curve, grid, [seed], eps, **solver)
    if isinstance(entry, NonPositiveFactor):
        raise entry
    return entry


@dataclass(frozen=True)
class NormTriple:
    l2_gamma: float
    h1_gamma: float
    sup: float


def weighted_norms(field: RateField | np.ndarray, grid: GridSpec,
                   t: float) -> NormTriple:
    """Weighted norms of the gap slice r(t, .) over x in [0, t_max - t].

    The L2 norm sums r^2 against the trapezoid-times-e^{gamma x} weights
    that :func:`timeline_norm` uses; the H1 norm adds the same sum over the
    derivative of the slice (second-order differences, first-order on a
    two-node slice); sup is the plain maximum of |r| on the slice.  Norms
    are over the truncated range.  An array needs one column per maturity
    node and a row at ``t``, so the leading rows of a field will do
    (DomainError otherwise).
    """
    values = field.values if isinstance(field, RateField) else np.asarray(field)
    i = grid.index_of_time(t)
    if (values.ndim != 2 or values.shape[1] != grid.n_cols + 1
            or i >= len(values)):
        raise DomainError(f"an array of shape {values.shape} holds no slice "
                          f"at t = {t} on grid {grid.shape}")
    slice_vals = values[i, i:]
    n = slice_vals.size
    sup = float(np.max(np.abs(slice_vals))) if n else 0.0
    if n < 2:
        return NormTriple(0.0, 0.0, sup)
    weight = slice_weights(grid)[i, i:]
    deriv = (_row_gradient(values[i:i + 1, i:], grid.delta)[0] if n > 2
             else np.diff(slice_vals) / grid.delta)
    l2_sq = float(np.sum(weight * slice_vals * slice_vals))
    h1_sq = l2_sq + float(np.sum(weight * deriv * deriv))
    return NormTriple(math.sqrt(l2_sq), math.sqrt(h1_sq), sup)


def _row_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Every row i at once: np.gradient(values[i, i:], dx, edge_order=2).

    Row i of the result holds the slice derivative in columns i onward,
    from numpy's own interior and edge expressions, so bitwise the same;
    cells below the diagonal, and rows with fewer than 3 cells on or
    above it, hold no meaningful value.
    """
    out = np.zeros_like(values)
    if values.shape[1] < 3:
        return out
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2. * dx)
    out[:, -1] = ((0.5 / dx) * values[:, -3] + (-2. / dx) * values[:, -2]
                  + (1.5 / dx) * values[:, -1])
    i = np.arange(min(values.shape[0], values.shape[1] - 2))
    out[i, i] = ((-1.5 / dx) * values[i, i] + (2. / dx) * values[i, i + 1]
                 + (-0.5 / dx) * values[i, i + 2])
    return out


def _timeline_norms(values: np.ndarray, grid: GridSpec,
                    work: np.ndarray | None = None) -> list[float]:
    """The timeline norm of each flat-extended field of a stack.

    Below the diagonal the weights are zero and the cells copies of
    diagonal cells, so they add nothing when finite; a non-finite cell,
    or a weighted sum that overflows, makes the norm infinite.  ``work``
    (the shape of ``values``) is scratch.  Sums run along the slices, so
    each norm is that of its field alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.multiply(slice_weights(grid), values, out=work)
        squares *= values
        peaks = squares.sum(axis=-1).max(axis=-1).tolist()
    # a peak is NaN where a non-finite cell met a zero weight or a NaN
    return [math.sqrt(peak) if peak == peak else math.inf for peak in peaks]


def timeline_norm(values: np.ndarray, grid: GridSpec) -> float:
    """sup over grid times of the slice L2 norms (the timeline norm).

    ``values`` must have the grid's field shape (DomainError otherwise).
    Infinite when a cell on or above the diagonal is not finite, or when
    a weighted sum of finite cells overflows; cells below the diagonal
    are not read.
    """
    upper = np.where(below_diagonal(grid.shape), 0.0,
                     grid.check_field(values))
    return _timeline_norms(upper[None], grid)[0]


def apriori_bound(spec: LevyModelSpec, vol: VolatilitySpec, grid: GridSpec,
                  r0_norm: float, b_sup: float) -> float | None:
    """Smallest c with ln(b_sup * r0_norm) <= ln c - lam_up*t_star*J'(lam_up*c/sqrt(gamma)).

    Scans a log grid over [b_sup * r0_norm, 1e12] and bisects the first
    sign change; returns None when no admissible c exists in range (the
    growth of J' defeats the bound).  ``r0_norm`` and ``b_sup`` must be
    positive and finite (DomainError otherwise, NaN included).
    """
    if not (0.0 < r0_norm < math.inf and 0.0 < b_sup < math.inf):
        raise DomainError("r0_norm and b_sup must be positive and finite")
    lam_bar = vol.lambda_upper
    t_star = grid.t_star
    root_gamma = math.sqrt(grid.gamma)
    dj = fast_derivative(spec, 1)
    base = b_sup * r0_norm

    def gap(c: float) -> float:
        return (math.log(c) - lam_bar * t_star * float(dj(lam_bar * c / root_gamma))
                - math.log(base))

    if gap(base) >= 0.0:
        return base
    cs = np.geomspace(base, 1e12, 400)
    prev = base
    hit = None
    for c in cs[1:]:
        if gap(float(c)) >= 0.0:
            hit = float(c)
            break
        prev = float(c)
    if hit is None:
        return None
    lo, hi = prev, hit
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class ContractionReport:
    """Iterated Gronwall bound versus the observed distance field."""

    k_constant: float
    initial_sup: float
    observed_sups: list
    analytic_bounds: list
    passed: bool


def uniqueness_contraction_check(field1: RateField, field2: RateField,
                                 spec: LevyModelSpec, vol: VolatilitySpec,
                                 grid: GridSpec, *, b_sup: float = 1.0,
                                 n_iter: int = 5,
                                 tolerance: float = 1e-6) -> ContractionReport:
    """Drive the distance of two candidate solutions through the Gronwall loop.

    The pointwise distance d = |f1 - f2| satisfies
    d <= K * int_0^t int_s^T d(s, u) du ds with
    K = sup(f0) * b_sup * exp(lam_up * t_star * max|J'|) * J''(0) * lam_up^2;
    iterating the double integral n times multiplies the bound by
    K^n (t_star * t_max)^n / (n!)^2.  Requires a finite second moment of the
    jump measure (J''(0) < inf), else SecondMomentInfinite is raised.
    ``b_sup``, the sup of the path's jump factor field, must be positive
    and finite (DomainError otherwise, NaN included).
    """
    _require_on_grid(field1, grid, "field1")
    _require_on_grid(field2, grid, "field2")
    if not 0.0 < b_sup < math.inf:
        raise DomainError(f"b_sup must be positive and finite, got {b_sup}")
    second = spec.measure.second_moment()
    if not math.isfinite(second) or not math.isfinite(spec.gaussian_q):
        raise SecondMomentInfinite(
            "the uniqueness bound needs a finite second moment of the measure")
    lam_bar = vol.lambda_upper
    root_gamma = math.sqrt(grid.gamma)
    dj = fast_derivative(spec, 1)
    ddj = fast_derivative(spec, 2)
    j2_at_zero = float(ddj(np.zeros(1))[0])
    norms = np.array([timeline_norm(field1.values, grid),
                      timeline_norm(field2.values, grid)])
    max_dj = max(np.abs(dj(lam_bar * norms / root_gamma)).tolist())
    r0_sup = float(np.max(field1.values[0]))
    k_const = (r0_sup * b_sup * math.exp(lam_bar * grid.t_star * max_dj)
               * j2_at_zero * lam_bar ** 2)

    d = np.abs(field1.values - field2.values)
    initial_sup = float(np.max(d))
    uw = grid.t_star * grid.t_max
    observed = []
    bounds = []
    current = d
    for m in range(1, n_iter + 1):
        inner = gap_integral(current, grid.delta)
        current = k_const * cumtrapz(inner, grid.delta, axis=0)
        observed.append(float(np.max(current)))
        bounds.append(initial_sup * k_const ** m * uw ** m
                      / math.factorial(m) ** 2)
    return ContractionReport(k_constant=k_const, initial_sup=initial_sup,
                             observed_sups=observed, analytic_bounds=bounds,
                             passed=initial_sup <= tolerance)


@dataclass
class StrongResidualReport:
    """Discrete residuals of the strong form.

    A field reads NaN when it checked no cells: the time residual on a
    path with no jump-free panel, the d_x identity on a slice too short
    or for a volatility that depends on maturity.
    """

    delta: float
    time_residual_max: float
    time_residual_mean: float
    panels_checked: int
    jump_relation_max_error: float
    dx_identity_max: float
    dx_identity_mean: float


def strong_residual(field: RateField, vol: VolatilitySpec, spec: LevyModelSpec,
                    path: JumpPath, grid: GridSpec) -> StrongResidualReport:
    """Check the solved field against the strong form of the dynamics.

    On every jump-free time panel [t_i, t_{i+1}] whose slice has at least
    3 nodes, the forward difference in time at fixed gap x is compared
    with delta times the drift
    d_x r + J'(int_0^x lambda r dv) lambda r + lambda c r (c the path
    drift rate, d_x r by second-order differences along the slice), all
    panels in one array; across each jump the factor 1 + lambda(s) dL that
    the factor field carries is compared with its direct value
    (:func:`~hjmm.paths.jump_factor_error`, a check of the path data at
    rounding level, which does not read the solved field); and the
    analytic identity for d_x r in terms of J'' is checked on the interior
    cells of every slice with at least 4 nodes.  The time residual and
    the jump relation read lambda on the grid at its own width, so they
    hold for every volatility; the d_x identity, d_x r = r (f0'/f0 +
    int J'' lambda^2 r ds), holds for a time-only lambda alone (any other
    adds d_T lambda terms), so for a maturity-dependent one it checks no
    cells and its fields read NaN.
    """
    values = field.values
    dx = grid.delta
    lam = vol.on_grid(grid)
    inner = gap_integral(values * lam, dx)
    d_x = _row_gradient(values, dx)

    drift = (d_x + fast_derivative(spec, 1)(inner) * lam * values
             + lam * path.drift_rate * values)
    # same gap coordinate x on both rows: column shifts by one with the row
    fwd = (values[1:, 1:] - values[:-1, :-1]) / dx
    counts = np.searchsorted(path.times, grid.t_nodes(), side="right")
    jump_free = counts[1:] == counts[:-1]
    i, j = np.indices(fwd.shape, sparse=True)
    checked = jump_free[:, None] & (i <= grid.n_cols - 2) & (i <= j)
    res = np.abs(fwd - drift[:-1, :-1])[checked]

    dx_res = (_dx_identity_residual(values, vol, fast_derivative(spec, 2),
                                    inner, d_x, grid)
              if vol.time_only else np.empty(0))
    return StrongResidualReport(
        delta=dx,
        time_residual_max=float(np.max(res)) if res.size else math.nan,
        time_residual_mean=float(np.mean(res)) if res.size else math.nan,
        panels_checked=int(np.count_nonzero(jump_free)),
        jump_relation_max_error=jump_factor_error(vol, path, grid),
        dx_identity_max=float(np.max(dx_res)) if dx_res.size else math.nan,
        dx_identity_mean=float(np.mean(dx_res)) if dx_res.size else math.nan,
    )


def _dx_identity_residual(values: np.ndarray, vol: VolatilitySpec, ddj,
                          inner: np.ndarray, d_x: np.ndarray,
                          grid: GridSpec) -> np.ndarray:
    """|d_x r - r (f0'/f0 + int_0^t J''(...) lambda^2 r ds)| on the interior
    cells of every slice with at least 4 nodes."""
    kern = ddj(inner) * (vol.on_grid(grid) ** 2) * values
    integral = cumtrapz(kern, grid.delta, axis=0)
    res = np.abs(d_x - values * (d_x[0] / values[0] + integral))
    i, j = np.indices(grid.shape, sparse=True)
    return res[(i <= grid.n_cols - 3) & (i < j) & (j < grid.n_cols)]
