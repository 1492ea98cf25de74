"""Jump-measure families and their integral primitives.

Four families of Levy measures are supported:

* ``PointMasses`` -- a finite list of atoms (y_k, c_k), i.e. a compound
  Poisson measure.  All integrals reduce to exact sums.
* ``StableLike`` -- density c * y**(-1-alpha) on (0, y_max], alpha in (0, 2).
* ``GammaLike`` -- density c * y**(-1) * exp(-beta*y) on (0, inf).
* ``UserDensity`` -- an arbitrary callable density on (0, inf).

Every per-family fact the growth classifier and the assumption check read
is a method here, so ``hjmm.levy`` never asks which family it holds: the
atoms in (-1/lambda_bar, 0) (``negative_atoms``), the (A4) small-jump
integral (``small_jump_square``) and the tail index rho of
U(x) ~ x^rho near zero (``tail_index``: exact for the built-in
families, a log-log regression of U for a certified ``UserDensity``,
none for an uncertified one).

Each family gives the measure's part of the Laplace exponent and its
derivatives by two routes:

* one adaptive-quadrature route (``exponent_part``, orders 0, 1 and 2),
  written once on ``MeasureFamily`` as integrals of the family's scalar
  ``density(y)`` over its support, with relative tolerance 1e-10, a series
  fallback for the compensated integrand near z*y = 0 and the boundary
  layer of width 1/z at each piece's lower end cut out.  It serves the
  public exponent operations and is the oracle the vectorized route is
  tested against; ``PointMasses`` answers it with its exact sums; and
* a vectorized route (``derivative_measure_part``) used by the
  fixed-point solver, where thousands of evaluations per iteration are
  needed: a closed form for ``GammaLike``, one loop of exact sums over
  the atoms for ``PointMasses``, and the fixed rule below for the
  stable-like and user densities.

One fixed rule, composite Gauss-Legendre in s = ln y with 16 nodes on
each panel of width 2 from y = e^-40 on, gives ``StableLike`` and
``UserDensity`` their J' and J''; its last panel is cut at ln y_max for
a stable-like density and ends where the first moment of the tail
vanishes for a user density.  Their J' on z in [0, 3e4) is read from a
cubic Hermite table of the rule's own J' and J'', built once per measure
and kept with the rule.  The same rule gives ``UserDensity`` its tail
mass nu([y, inf)) (the rule's mass beyond y's panel plus 16 nodes from y
to its end).  Jump sizes above eps solve
nu([y, inf)) = (1 - u) nu([eps, inf)) by one safeguarded Newton iteration
in ln y, on the rule for ``UserDensity`` and on E1 for ``GammaLike``;
``StableLike`` and ``PointMasses`` draw exactly.  Every family draws
through one method, ``jump_sizes(u, eps)``: the size that each uniform in
u selects, a function of that uniform alone.  A Newton draw keeps its
value from its first settled step on, so a size is bitwise the same
whatever draws are inverted with it, and a block of paths can draw all
its sizes in one call.
"""

from __future__ import annotations

import functools
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy import special as sc
from scipy import stats

from .errors import DomainError, NonIntegrable

__all__ = [
    "MeasureFamily",
    "PointMasses",
    "StableLike",
    "GammaLike",
    "UserDensity",
    "TailIndex",
]

# Relative tolerance demanded from adaptive quadrature.
QUAD_RTOL = 1e-10
# Below this value of |z*y| the compensated integrand switches to its series.
SERIES_THRESHOLD = 1e-4

# The fixed rule: panels of this width in s = ln y from this lower end,
# 16 nodes each, the nodes below y = 1 first; the (points x nodes)
# temporaries of its J' and J'' hold this many points at a time.
_RULE_PANEL = 2.0
_RULE_S_MIN = -40.0
_RULE_NODES, _RULE_WEIGHTS = np.polynomial.legendre.leggauss(16)
_RULE_N_LOW = round(-_RULE_S_MIN / _RULE_PANEL) * _RULE_NODES.size
_RULE_BLOCK = 128
# A sub-panel's 16 nodes, then its start, in half-widths from the start.
_TAIL_NODES = np.append(_RULE_NODES + 1.0, 0.0)

# The J' table of a rule density: cubic Hermite in u = log1p(z) on
# _TABLE_INTERVALS uniform intervals of [0, log1p(_TABLE_Z_MAX)]; a table
# that misses the rule's J' by more than _TABLE_RTOL * max(1, |J'|) at the
# middle of an interval is not used.  It is built and checked this many
# intervals at a time, so that its build holds little more memory than
# the table itself.
_TABLE_Z_MAX = 3e4
_TABLE_INTERVALS = 1 << 14
_TABLE_STEP = math.log1p(_TABLE_Z_MAX) / _TABLE_INTERVALS
_TABLE_RTOL = 1e-10
_TABLE_CHUNK = 1 << 11

# The tail-index regression of U: its range, and the band around its slope
# within which rho is taken as known.
_RHO_REGRESSION_RANGE = (1e-6, 1e-2)
_RHO_BAND = 0.1


def compensated_exp(w: float) -> float:
    """exp(-w) - 1 + w, evaluated without cancellation for small |w|."""
    if abs(w) < SERIES_THRESHOLD:
        return w * w * (0.5 + w * (-1.0 / 6.0 + w * (1.0 / 24.0 - w / 120.0)))
    return math.expm1(-w) + w


# compensated_exp on arrays, element by element: J of the atoms
_compensated_exps = np.vectorize(compensated_exp, otypes=[float])


# A missing memoized value is computed under this lock, so threads that
# ask for it at once compute it once; reentrant, as one memoized method
# may call another.
_CACHE_LOCK = threading.RLock()


def _memoized(method: Callable) -> Callable:
    """Keep a method's value in the instance's ``_cache``, per argument."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, args)
        if key not in self._cache:
            with _CACHE_LOCK:
                if key not in self._cache:
                    self._cache[key] = method(self, *args)
        return self._cache[key]
    return cached


def _quad(f: Callable[[float], float], a: float, b: float, what: str,
          epsabs: float = 1e-14) -> float:
    """Adaptive quadrature that raises NonIntegrable on failure."""
    out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=QUAD_RTOL,
                         limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise NonIntegrable(f"{what}: {out[3]}")
    if not math.isfinite(value):
        raise NonIntegrable(f"{what}: integral is not finite")
    # Relative-error check; abserr on a genuinely tiny integral is fine.
    if abserr > 1e-7 * max(abs(value), 1e-300) and abserr > 1e-12:
        raise NonIntegrable(
            f"{what}: quadrature error {abserr:.2e} too large for value {value:.6e}"
        )
    return value


def integral_or_inf(integral: Callable[..., float], *args) -> float:
    """``integral(*args)``, or +inf where it raises NonIntegrable: a measure
    integral whose quadrature diverges reads as infinite."""
    try:
        return integral(*args)
    except NonIntegrable:
        return math.inf


def _layered_quad(f: Callable[[float], float], z: float, a: float, b: float,
                  what: str) -> float:
    """``_quad`` of f over (a, b), cut, if b is finite, at a + 4^k/z
    (k = 0..3) and, for a > 0, at a 10^k (k >= 1): J and its derivatives
    change on the scale 1/z next to a, and a power law over decades of
    (a, b) on every decade; one call on a long (a, b) misses both (an
    infinite one crowds its nodes at a)."""
    cuts = [a + c / z for c in (1.0, 4.0, 16.0, 64.0) if z > 0.0]
    if 0.0 < a < b < math.inf:
        cuts += [a * 10.0 ** k for k in range(1, math.ceil(math.log10(b / a)))]
    ends = [a, *sorted(c for c in cuts if a < c < b < math.inf), b]
    return sum(_quad(f, lo, hi, what) for lo, hi in zip(ends, ends[1:]))


def _log_rule(s_lo: float, s_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_k and weights w_k of the fixed rule on [e^s_lo, e^s_hi]:
    sum_k w_k h(y_k) approximates the integral of h(y) dy, with panels of
    width 2 in s = ln y from s_lo on and the last one cut at s_hi."""
    ends = np.append(np.arange(s_lo, s_hi, _RULE_PANEL), s_hi)
    half = 0.5 * np.diff(ends)[:, None]
    y = np.exp((ends[:-1, None] + half * (_RULE_NODES + 1.0)).ravel())
    return y, (half * _RULE_WEIGHTS).ravel() * y


def _rule_sums(z: np.ndarray, y: np.ndarray, weight: np.ndarray,
               n_expm1: int) -> np.ndarray:
    """sum_k weight_k h(-z y_k) for every point z, where h is expm1 on the
    first ``n_expm1`` nodes and exp on the others.

    The points go through a (block x nodes) buffer, and each point's sum
    is its own row's, so a value does not depend on which points, or how
    many, are evaluated with it.
    """
    flat = z.ravel()
    out = np.empty(flat.size)
    buf = np.empty((min(_RULE_BLOCK, flat.size), y.size))
    neg_y = -y
    with np.errstate(over="ignore", under="ignore"):
        for i in range(0, flat.size, _RULE_BLOCK):
            zb = flat[i:i + _RULE_BLOCK]
            w = buf[:zb.size]
            np.multiply(zb[:, None], neg_y, out=w)
            np.expm1(w[:, :n_expm1], out=w[:, :n_expm1])
            np.exp(w[:, n_expm1:], out=w[:, n_expm1:])
            w *= weight
            out[i:i + _RULE_BLOCK] = w.sum(axis=1)
    return out.reshape(z.shape)


def _read_table(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The cubic of each z's interval, from its power coefficients in the
    interval's own coordinate t in [0, 1]; z must lie in [0, z_max)."""
    t = np.log1p(z, out=np.empty_like(z))  # an array also for 0-d z
    t *= 1.0 / _TABLE_STEP
    k = t.astype(np.intp)
    np.minimum(k, _TABLE_INTERVALS - 1, out=k)
    t -= k
    out = coef[3].take(k)
    for c in coef[2::-1]:
        out *= t
        out += c.take(k)
    return out


def _invert_log_tail(tail: Callable, target: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """Per draw, s = ln y in [lo, hi] with T(e^s) = target, where ``tail(s)``
    gives a tail mass T(e^s) <= target at hi, >= at lo, and -dT/ds = y f(y):
    Newton from lo, bisecting when a step leaves the narrowing bracket.

    A draw keeps its value from its first step of at most 1e-9 on (Newton's
    error after it is of its square), so its result is bitwise the one it
    has inverted alone, whatever draws are inverted with it."""
    s = lo
    done = np.zeros(target.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if done.all():
                break
            mass, slope = tail(s)
            gap = mass - target
            lo = np.where(gap >= 0.0, s, lo)
            hi = np.where(gap <= 0.0, s, hi)
            new = s + gap / slope
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            # a NaN step counts as unsettled, as a large one does
            settled = np.abs(new - s) <= 1e-9
            s = np.where(done, s, new)
            done |= settled
    return s


@dataclass(frozen=True)
class TailIndex:
    """Small-jump tail index: U(x) = int_(0,x] y^2 nu(dy) ~ x^rho near 0.

    ``rho`` is known to within ``band``; ``note`` says where it came from.
    """

    rho: float
    band: float
    note: str


class MeasureFamily(ABC):
    """Common interface of the jump-measure families.

    The defaults below serve a density on (0, inf): ``exponent_part``
    integrates ``self.density(y)``, which every family with a density
    defines on floats y > 0, over a support inside [0, inf), a density has
    no atoms, its (A4) small-jump integral is U(1), and its tail index is
    read off U.  ``PointMasses`` overrides them with exact sums.
    """

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Infimum and supremum of the support."""

    def exponent_part(self, z: float, order: int) -> float:
        """The measure's part of J (order 0), J' or J'' at one z >= 0.

        Adaptive quadrature of the density times the integrand of the
        order: e^{-zy} - 1 + zy, (1 - e^{-zy}) y and e^{-zy} y^2 on
        (0, min(1, y_max)), compensated, and e^{-zy} - 1, -e^{-zy} y and
        e^{-zy} y^2 on [1, y_max).
        """
        y_max = self.support()[1]
        f = self.density
        low, high = (
            (lambda y: compensated_exp(z * y) * f(y),
             lambda y: math.expm1(-z * y) * f(y)),
            (lambda y: -math.expm1(-z * y) * y * f(y),
             lambda y: -math.exp(-z * y) * y * f(y)),
            (lambda y: math.exp(-z * y) * y * y * f(y),) * 2,
        )[order]
        what = f"{type(self).__name__} J" + "'" * order
        total = _layered_quad(low, z, 0.0, min(1.0, y_max), what)
        if y_max > 1.0:
            total += _layered_quad(high, z, 1.0, y_max, what)
        return total

    @abstractmethod
    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """Vectorized J1'+J2'+J3' (order 1) or J1''+J2''+J3'' (order 2)."""

    def negative_atoms(self, lo: float) -> int:
        """The number of atoms in (lo, 0)."""
        return 0

    def small_jump_square(self, lo: float) -> float:
        """Integral of y**2 over (lo, 1), the small-jump part of (A4)."""
        return self.squared_integral(1.0)

    def tail_index(self) -> TailIndex | None:
        """rho from a log-log regression of U over [1e-6, 1e-2], known to
        within 0.1 (+inf where U vanishes there); None if not known."""
        lo, hi = _RHO_REGRESSION_RANGE
        xs = np.geomspace(lo, hi, 25)
        us = np.array([self.squared_integral(float(x)) for x in xs])
        if np.all(us <= 0.0):
            return TailIndex(math.inf, 0.0, "U vanishes on the regression "
                                            "range (rho treated as +inf)")
        fit = stats.linregress(np.log(xs), np.log(us))
        rho = float(fit.slope)
        return TailIndex(rho, _RHO_BAND,
                         f"log-log regression of U over [{lo:g}, {hi:g}]: "
                         f"rho_hat = {rho:.4f} +/- {2.0 * fit.stderr:.4f} (2 se)")

    @abstractmethod
    def squared_integral(self, x: float) -> float:
        """U(x) = integral of y**2 over (0, x]."""

    @abstractmethod
    def first_moment(self, lo: float, hi: float) -> float:
        """Integral of y over [lo, hi) intersected with the support.

        May be +inf for infinite-variation families when lo <= 0.
        """

    @abstractmethod
    def second_moment(self, positive_only: bool = False) -> float:
        """Integral of y**2 over the support (or its positive part)."""

    @abstractmethod
    def total_mass(self) -> float:
        """nu of the whole support; +inf for infinite-activity families."""

    @abstractmethod
    def tail_mass(self, y: float) -> float:
        """nu([y, inf)) for y > 0."""

    @abstractmethod
    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The jump size that each uniform in ``u`` selects; infinite-activity
        families condition on y >= eps.  Each size depends on its own
        uniform alone."""

    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        """Draw n jump sizes from n uniforms of ``rng``."""
        return self.jump_sizes(rng.uniform(size=n), eps)

    @property
    def is_finite_activity(self) -> bool:
        return math.isfinite(self.total_mass())


@dataclass(frozen=True)
class PointMasses(MeasureFamily):
    """Finite atomic measure: nu = sum_k c_k * delta_{y_k}.

    Parameters
    ----------
    atoms : sequence of (location, mass) pairs; locations nonzero, masses > 0.
    """

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms) -> None:
        cleaned = tuple((float(y), float(c)) for y, c in atoms)
        for y, c in cleaned:
            if y == 0.0 or not math.isfinite(y):
                raise DomainError(f"atom location must be nonzero and finite, got {y}")
            if c <= 0.0 or not math.isfinite(c):
                raise DomainError(f"atom mass must be positive and finite, got {c}")
        object.__setattr__(self, "atoms", cleaned)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.atoms:
            return np.empty(0), np.empty(0)
        ys, cs = zip(*self.atoms)
        return np.asarray(ys, dtype=float), np.asarray(cs, dtype=float)

    def support(self) -> tuple[float, float]:
        if not self.atoms:
            return (0.0, 0.0)
        ys, _ = self._arrays()
        return (float(ys.min()), float(ys.max()))

    def exponent_part(self, z: float, order: int) -> float:
        return float(self.derivative_measure_part(z, order))

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """Exact sums over the atoms; order 0 gives the part of J itself.

        Every atom below 1, negative ones included, is compensated.
        """
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        with np.errstate(over="ignore", under="ignore"):
            for y, c in self.atoms:
                w = z * y
                if order == 0:
                    out += c * (_compensated_exps(w) if y < 1.0
                                else np.expm1(-w))
                elif order == 1:
                    out += (c * y * (-np.expm1(-w)) if y < 1.0
                            else -c * y * np.exp(-w))
                else:
                    out += c * y * y * np.exp(-w)
        return out

    def negative_atoms(self, lo: float) -> int:
        return sum(lo < y < 0.0 for y, _ in self.atoms)

    def small_jump_square(self, lo: float) -> float:
        return sum(c * y * y for y, c in self.atoms if lo < y < 1.0)

    def tail_index(self) -> TailIndex:
        return TailIndex(math.inf, 0.0,
                         "Atomic measure: U vanishes near zero (rho treated "
                         "as +inf); finite-activity jumps grow at most "
                         "logarithmically")

    def squared_integral(self, x: float) -> float:
        return sum(c * y * y for y, c in self.atoms if 0.0 < y <= x)

    def first_moment(self, lo: float, hi: float) -> float:
        return sum(c * y for y, c in self.atoms if lo <= y < hi)

    def second_moment(self, positive_only: bool = False) -> float:
        return sum(c * y * y for y, c in self.atoms if y > 0.0 or not positive_only)

    def total_mass(self) -> float:
        return sum(c for _, c in self.atoms)

    def tail_mass(self, y: float) -> float:
        return sum(c for yk, c in self.atoms if yk >= y)

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The atom whose share of the mass holds u, as
        ``Generator.choice`` picks it; the truncation level is ignored."""
        ys, cs = self._arrays()
        if ys.size == 0:
            return np.empty(0)
        cdf = np.cumsum(cs / cs.sum())
        cdf /= cdf[-1]
        return ys[np.searchsorted(cdf, u, side="right")]


class _RuleDensity(MeasureFamily):
    """A density whose J' and J'' come from the fixed rule: nodes y_k and
    weights g_k = w_k y_k f(y_k) from e^-40 to the rule's end, and U(e^-40)
    for the mass below, where J' and J'' are linear in it:

        J'(z) = sum_{y_k<1} g_k (1 - e^{-z y_k}) - sum_{y_k>=1} g_k e^{-z y_k}
                + z U(e^-40),
        J''(z) = sum_k g_k y_k e^{-z y_k} + U(e^-40).

    J' on z in [0, 3e4) is read from a table of the rule (see
    ``_derivative_table``).  The rule and the table are kept in the
    instance's ``_cache``, each built once.
    """

    @abstractmethod
    def _rule(self) -> tuple:
        """y_k, g_k and U(e^-40), then anything else the family keeps."""

    def _rule_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """J' or J'' by the rule, summed per point."""
        y, g, u_min = self._rule()[:3]
        if order == 1:
            return _rule_sums(z, y, -g, _RULE_N_LOW) + z * u_min
        return _rule_sums(z, y, g * y, 0) + u_min

    @_memoized
    def _derivative_table(self) -> np.ndarray | None:
        """The J' table, as power coefficients of each interval's cubic
        (shape (4, intervals), constant term first), or None where it
        misses the tolerance.

        Node values and slopes come from the rule: J'(z) and
        dJ'/du = J''(z) (1 + z).  The check reads the table as
        ``derivative_measure_part`` does, through :func:`_read_table`.
        """
        coef = np.empty((4, _TABLE_INTERVALS))
        for lo in range(0, _TABLE_INTERVALS, _TABLE_CHUNK):
            u = np.arange(lo, lo + _TABLE_CHUNK + 1) * _TABLE_STEP
            z = np.expm1(u)
            f = self._rule_part(z, 1)
            d = self._rule_part(z, 2) * (1.0 + z) * _TABLE_STEP
            f0, f1, d0, d1 = f[:-1], f[1:], d[:-1], d[1:]
            coef[:, lo:lo + _TABLE_CHUNK] = [
                f0, d0, 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1]
            middle = np.expm1(u[:-1] + 0.5 * _TABLE_STEP)
            want = self._rule_part(middle, 1)
            miss = np.abs(_read_table(coef, middle) - want)
            if not np.all(miss <= _TABLE_RTOL * np.maximum(1.0, np.abs(want))):
                return None
        return coef

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """J'' by the rule; J' from the table where it holds, on points
        with z in [0, 3e4), and by the rule on every other point."""
        z = np.asarray(z, dtype=float)
        coef = self._derivative_table() if order == 1 else None
        if coef is None:
            return self._rule_part(z, order)
        if z.size and z.min() >= 0.0 and z.max() < _TABLE_Z_MAX:
            return _read_table(coef, z)
        # NaN, inf and z >= z_max (the cells of exploding paths)
        inside = (z >= 0.0) & (z < _TABLE_Z_MAX)
        out = np.array(_read_table(coef, np.where(inside, z, 0.0)))
        out[~inside] = self._rule_part(z[~inside], 1)
        return out


@dataclass(frozen=True)
class StableLike(_RuleDensity):
    """Density c * y**(-1-alpha) on (0, y_max], alpha in (0, 2)."""

    c: float
    alpha: float
    y_max: float = 1.0
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise DomainError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.alpha < 2.0:
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0.0 < self.y_max < math.inf:
            raise DomainError(f"y_max must be positive and finite, got {self.y_max}")

    def density(self, y: float) -> float:
        if 0.0 < y <= self.y_max:
            return self.c * y ** (-1.0 - self.alpha)
        return 0.0

    def support(self) -> tuple[float, float]:
        return (0.0, self.y_max)

    @_memoized
    def _rule(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The fixed rule cut at y_max: y_k, g_k = c w_k y_k^-alpha and
        U(e^-40)."""
        y, w = _log_rule(_RULE_S_MIN, math.log(self.y_max))
        return (y, self.c * w * y ** -self.alpha,
                self.squared_integral(math.exp(_RULE_S_MIN)))

    def tail_index(self) -> TailIndex:
        rho = 2.0 - self.alpha
        return TailIndex(rho, 1e-12, f"U(x) ~ c*x^{rho:.6g}/{rho:.6g} near zero")

    def squared_integral(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        b = min(x, self.y_max)
        return self.c * b ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def first_moment(self, lo: float, hi: float) -> float:
        lo = max(lo, 0.0)
        hi = min(hi, self.y_max)
        if hi <= lo:
            return 0.0
        if lo == 0.0 and self.alpha >= 1.0:
            return math.inf
        if abs(self.alpha - 1.0) < 1e-12:
            return self.c * math.log(hi / lo)
        p = 1.0 - self.alpha
        return self.c * (hi ** p - lo ** p) / p

    def second_moment(self, positive_only: bool = False) -> float:
        return self.squared_integral(self.y_max)

    def total_mass(self) -> float:
        return math.inf

    def tail_mass(self, y: float) -> float:
        if y >= self.y_max:
            return 0.0
        y = max(y, 1e-300)
        return self.c * (y ** (-self.alpha) - self.y_max ** (-self.alpha)) / self.alpha

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The exact inverse of the tail mass."""
        if eps <= 0.0 or eps >= self.y_max:
            raise DomainError(f"truncation level must lie in (0, y_max), got {eps}")
        lo_pow = eps ** (-self.alpha)
        hi_pow = self.y_max ** (-self.alpha)
        return (lo_pow - u * (lo_pow - hi_pow)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class GammaLike(MeasureFamily):
    """Density c * y**(-1) * exp(-beta*y) on (0, inf)."""

    c: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise DomainError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")

    def density(self, y: float) -> float:
        return self.c * math.exp(-self.beta * y) / y if y > 0.0 else 0.0

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        sigma = self.beta + z
        with np.errstate(over="ignore", under="ignore"):
            if order == 1:
                m1 = self.c * (-math.expm1(-self.beta)) / self.beta
                return m1 - self.c / sigma
            return self.c / (sigma * sigma)

    def tail_index(self) -> TailIndex:
        return TailIndex(2.0, 0.0, "U(x) ~ c*x^2/2 near zero")

    def squared_integral(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        bx = self.beta * x
        # c/beta^2 * (1 - e^{-bx}(1+bx)), series-stable via expm1
        return self.c / self.beta ** 2 * (-math.expm1(-bx) - bx * math.exp(-bx))

    def first_moment(self, lo: float, hi: float) -> float:
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        upper = math.exp(-self.beta * hi) if math.isfinite(hi) else 0.0
        return self.c * (math.exp(-self.beta * lo) - upper) / self.beta

    def second_moment(self, positive_only: bool = False) -> float:
        # int_0^inf y^2 * c y^{-1} e^{-beta y} dy = c / beta^2
        return self.c / self.beta ** 2

    def total_mass(self) -> float:
        return math.inf

    def tail_mass(self, y: float) -> float:
        if y <= 0.0:
            return math.inf
        return self.c * float(sc.exp1(self.beta * y))

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The Newton inverse of c E1(beta y)."""
        if eps <= 0.0:
            raise DomainError(f"truncation level must be positive, got {eps}")

        def tail(s):
            x = self.beta * np.exp(s)
            return sc.exp1(x), np.exp(-x)

        target = (1.0 - u) * float(sc.exp1(self.beta * eps))
        # E1(x) < e^-x from x = 1 on, so the root lies below this y
        hi = np.log(np.maximum(1.0, -np.log(target)) / self.beta)
        return np.exp(_invert_log_tail(
            tail, target, np.full(target.shape, math.log(eps)), hi))


@dataclass(frozen=True)
class UserDensity(_RuleDensity):
    """Arbitrary density on (0, inf) supplied as a callable.

    The callable is evaluated on floats by the quadrature route and on numpy
    arrays by the fixed rule and the sampler, so it must accept both.  The
    rule starts at y = e^-40, below which J' and J'' are linear in U(e^-40)
    and no jump is drawn, and ends where the first moment of the tail falls
    to 1e-12 of its value over [1, inf) (at ~1e9 at the latest); its tail
    masses add the mass beyond the end, integrated once.  Where that first
    moment diverges (J'(0) = -inf, (A4) fails), building the rule raises
    NonIntegrable.  A negative or non-finite density at a node raises
    DomainError.  The rule and the
    measure-only integrals a path simulation asks for are kept in
    ``_cache``.  ``a4_certified`` declares that y^2 is integrable near zero
    and y near infinity; only certified measures participate in the
    tail-exponent regression of the growth classifier.
    """

    density_fn: Callable
    a4_certified: bool = False
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def density(self) -> Callable:
        """The callable itself, so the quadrature adds no wrapper per call."""
        return self.density_fn

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    @_memoized
    def _rule(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """Nodes y_k and weights g_k = w_k y_k f(y_k) of the fixed rule,
        U(e^-40), and its mass from each panel's start on (then beyond its
        end)."""
        hi, total = 2.0, self.first_moment(1.0, math.inf)
        if not math.isfinite(total):
            raise NonIntegrable(
                "UserDensity: the first moment over [1, inf) diverges, so "
                "J'(0) = -inf and (A4) fails")
        while self.first_moment(hi, math.inf) > 1e-12 * total and hi < 1e9:
            hi *= 2.0
        s_end = _RULE_PANEL * math.ceil(math.log(hi) / _RULE_PANEL)
        y, w = _log_rule(_RULE_S_MIN, s_end)
        f = np.broadcast_to(np.asarray(self.density_fn(y), dtype=float),
                            y.shape)
        bad = ~(np.isfinite(f) & (f >= 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"density must be finite and nonnegative, got "
                              f"{f[k]} at y = {y[k]:.6g}")
        # the mass beyond the end in t = end / y over (0, 1]: it is far
        # below the 1e-14 absolute tolerance that _quad has by default
        end = math.exp(s_end)
        beyond = _quad(lambda t: float(self.density_fn(end / t)) * end / t**2,
                       0.0, 1.0, "UserDensity tail mass", epsabs=0.0)
        mass = (w * f).reshape(-1, _RULE_NODES.size).sum(axis=1)
        return (y, w * y * f, self.squared_integral(math.exp(_RULE_S_MIN)),
                np.cumsum(np.append(mass, beyond)[::-1])[::-1])

    def _tail(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """nu([e^s, inf)) and y f(y) at y = e^s <= the rule's end: its mass
        beyond the panel holding s plus 16 nodes from s to the panel's end."""
        tails = self._rule()[3]
        s = np.minimum(s, _RULE_S_MIN + _RULE_PANEL * (tails.size - 1))
        p = np.minimum((s - _RULE_S_MIN) // _RULE_PANEL, tails.size - 2).astype(int)
        half = 0.5 * (_RULE_S_MIN + _RULE_PANEL * (p + 1) - s)
        y = np.exp(s[:, None] + half[:, None] * _TAIL_NODES)
        yf = y * np.asarray(self.density_fn(y), dtype=float)
        # each row summed on its own, so a draw's mass does not depend on
        # the draws evaluated with it
        nodes = np.add.reduce(yf[:, :-1] * _RULE_WEIGHTS, axis=1)
        return tails[p + 1] + half * nodes, yf[:, -1]

    def tail_index(self) -> TailIndex | None:
        """The regression of U, for a certified density only."""
        return super().tail_index() if self.a4_certified else None

    def squared_integral(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _quad(lambda y: y * y * float(self.density_fn(y)), 0.0, x,
                     "UserDensity U")

    @_memoized
    def first_moment(self, lo: float, hi: float) -> float:
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        return integral_or_inf(_quad, lambda y: y * float(self.density_fn(y)),
                               lo, hi, "UserDensity first moment")

    def second_moment(self, positive_only: bool = False) -> float:
        return integral_or_inf(
            _quad, lambda y: y * y * float(self.density_fn(y)), 0.0, math.inf,
            "UserDensity second moment")

    @_memoized
    def total_mass(self) -> float:
        return integral_or_inf(_quad, lambda y: float(self.density_fn(y)),
                               0.0, math.inf, "UserDensity total mass")

    @_memoized
    def tail_mass(self, y: float) -> float:
        if not y >= math.exp(_RULE_S_MIN):
            raise DomainError(f"truncation level must be at least e^-40, got {y}")
        return float(self._tail(np.array([math.log(y)]))[0][0])

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The Newton inverse of the rule's tail mass."""
        if eps <= 0.0 and self.is_finite_activity:
            eps = math.exp(_RULE_S_MIN)  # the whole measure the rule covers
        total = self.tail_mass(eps)
        if not total > 0.0:
            raise DomainError(f"no mass above the truncation level {eps}")
        target = (1.0 - u) * total
        # the last panel whose start carries the target, from eps on
        start = _RULE_S_MIN + _RULE_PANEL * (
            np.searchsorted(-self._rule()[3], -target, side="right") - 1)
        lo = np.maximum(start, math.log(eps))
        return np.exp(_invert_log_tail(
            self._tail, target, lo, np.maximum(start + _RULE_PANEL, lo)))
