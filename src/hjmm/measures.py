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
and kept with the rule.  The same rule, evaluated up to y = e^30, gives
``UserDensity`` every other integral it has: its moments, U, its total
mass and its tail mass nu([y, inf)) (the rule's mass beyond y's panel
plus 16 nodes from y to its end), with a geometric continuation of the
outermost panels outside the rule.  One 16-node sum serves every part of
a panel, for the integrals and for the sampler alike; adaptive
quadrature serves the quadrature route alone.  Jump sizes above eps solve
nu([y, inf)) = (1 - u) nu([eps, inf)) by one safeguarded Newton iteration
in ln y: on the rule for ``UserDensity``, from the lower end of the
bracket; and on E1 for ``GammaLike``, from a start read off a table of
E1's inverse, whence one step settles a draw.  E1 comes from
``hjmm._expint``, in numpy, within about 1e-15 of mpmath's.
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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._expint import e1, log_inverse_e1
from .errors import DomainError, NonIntegrable, number, positive

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

# A user density is evaluated on the rule up to e^30.  Its rule of J' ends
# at the first panel edge from e^2 on where the first moment of the tail is
# at most _RULE_TAIL_SHARE of the first moment over [1, inf), at e^22 at
# the latest.  The panels beyond carry its integrals out to where a tail
# like (1+y)^-3 is a power law to within 1e-11, so that the geometric
# continuation misses the mass beyond e^30 by 8e-12 of itself (by 2e-8
# beyond e^22).  The continuation out to zero or infinity reads +inf where the
# outermost panel ratio is at least _DIVERGENT_RATIO (rounding alone can
# move a ratio of exactly 1 below 1), or where the decay rate per unit s of
# the outermost pair of panels is more than _RATE_DRIFT below that of the
# next pair: a rate still falling toward 0, as a power of s falls (1/s for
# a logarithmic divergence), is no power law to continue.  Mixed power laws
# drift far less (1e-4 for y^-2.5 + y^-2.3 at zero); a divergence whose
# ln y scale starts far out, 1/(c + |ln y|) at zero with c >= 170, drifts
# less too and reads finite.
_RULE_S_END_MAX = 22.0
_SPAN_S_MAX = 30.0
_RULE_TAIL_SHARE = 1e-12
_DIVERGENT_RATIO = 1.0 - 1e-9
_RATE_DRIFT = 1e-2

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
    """Keep a method's value per argument in a dict of the instance's own
    ``__dict__``: no dataclass field, so equality, hashing and repr ignore
    it, and ``dataclasses.replace`` starts without it."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, args)
        cache = vars(self).setdefault("_cache", {})
        if key not in cache:
            with _CACHE_LOCK:
                if key not in cache:
                    cache[key] = method(self, *args)
        return cache[key]
    return cached


def _quad(f: Callable[[float], float], a: float, b: float, what: str,
          epsabs: float = 1e-14) -> float:
    """Adaptive quadrature that raises NonIntegrable on failure."""
    # imported here: only the quadrature route (exponent_part) reaches quad
    from scipy import integrate
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


def _edge(p: int) -> float:
    """s = ln y at the start of panel p of the fixed rule."""
    return _RULE_S_MIN + _RULE_PANEL * p


def _continuation(ends, d1: float, d2: float) -> float:
    """The integral from distance d1 to d2 in s (0 <= d1; d1 < d2 <= inf
    for a nonzero result) beyond an end of the span, continued by panels
    each ends[0]/ends[1] times the one before it, where ``ends`` are the
    span's three panels at that end, outermost first.  Zero where ends[0]
    is, 0/0 included; +inf to d2 = inf where the ratio is at least
    _DIVERGENT_RATIO or the decay rate falls by more than _RATE_DRIFT from
    ends[2]/ends[1] to ends[1]/ends[0]."""
    outer, inner, third = (float(p) for p in ends[:3])
    if outer == 0.0 or d1 >= d2:
        return 0.0
    if not inner > 0.0:
        return math.inf
    rate = 0.5 * math.log(inner / outer)  # the integrand's decay per unit s
    if d2 == math.inf and (outer >= _DIVERGENT_RATIO * inner or (
            third > 0.0
            and 0.5 * math.log(third / inner) > (1.0 + _RATE_DRIFT) * rate)):
        return math.inf
    if rate == 0.0:
        return 0.5 * outer * (d2 - d1)
    try:
        return (outer * math.exp(-rate * d1) * -math.expm1(-rate * (d2 - d1))
                / math.expm1(2.0 * rate))
    except OverflowError:
        return math.inf


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


class Scratch(NamedTuple):
    """Work buffers of one J' evaluation, each of the shape of its points:
    two float arrays ``t`` and ``g`` and an index array ``k``.  A caller
    that evaluates J' again and again builds them once and passes them in,
    so that an evaluation allocates nothing the size of its points."""

    t: np.ndarray
    k: np.ndarray
    g: np.ndarray

    @classmethod
    def empty(cls, shape) -> "Scratch":
        return cls(np.empty(shape), np.empty(shape, dtype=np.intp),
                   np.empty(shape))

    def head(self, m: int) -> "Scratch":
        """The buffers of the leading m entries of the first axis."""
        return Scratch(*(b[:m] for b in self))


def _read_table(coef: np.ndarray, z: np.ndarray, out: np.ndarray,
                scratch: Scratch) -> np.ndarray:
    """The cubic of each z's interval into ``out``, from its power
    coefficients in the interval's own coordinate t in [0, 1]; z must lie
    in [0, z_max).  t, the interval k and the gathered coefficients live
    in ``scratch``."""
    t, k, g = scratch
    np.log1p(z, out=t)
    t *= 1.0 / _TABLE_STEP
    # floor is truncation on t >= 0; kept as floats, the subtraction
    # casts nothing
    np.floor(t, out=g)
    np.minimum(g, _TABLE_INTERVALS - 1, out=g)
    t -= g
    np.copyto(k, g, casting="unsafe")
    # the indices lie in range, and only a clipping take writes into out
    # without a buffer
    coef[3].take(k, out=out, mode="clip")
    for c in coef[2::-1]:
        out *= t
        out += c.take(k, out=g, mode="clip")
    return out


def _invert_log_tail(tail: Callable, target: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, start: np.ndarray | None = None
                     ) -> np.ndarray:
    """Per draw, s = ln y in [lo, hi] with T(e^s) = target, where ``tail(s)``
    gives a tail mass T(e^s) <= target at hi, >= at lo, and -dT/ds = y f(y):
    Newton from ``start`` (in [lo, hi]; lo if None), bisecting when a step
    leaves the narrowing bracket.

    A draw keeps its value from its first step of at most 1e-9 on (Newton's
    error after it is of its square), so its result is bitwise the one it
    has inverted alone, whatever draws are inverted with it."""
    s = lo if start is None else start
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
    def derivative_measure_part(self, z: np.ndarray, order: int, out=None,
                                scratch=None) -> np.ndarray:
        """Vectorized J1'+J2'+J3' (order 1) or J1''+J2''+J3'' (order 2),
        written into ``out`` (z's shape; allocated if None) and returned.
        ``scratch`` (a :class:`Scratch` of z's shape; allocated if None
        where needed) holds the work buffers of the family's route."""

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
        # least squares of ln U on ln x, its slope's standard error on
        # n - 2 degrees of freedom
        x, y = np.log(xs), np.log(us)
        dx, dy = x - x.mean(), y - y.mean()
        sxx = float(dx @ dx)
        rho = float(dx @ dy) / sxx
        resid = dy - rho * dx
        stderr = math.sqrt(float(resid @ resid) / (xs.size - 2) / sxx)
        return TailIndex(rho, _RHO_BAND,
                         f"log-log regression of U over [{lo:g}, {hi:g}]: "
                         f"rho_hat = {rho:.4f} +/- {2.0 * stderr:.4f} (2 se)")

    @abstractmethod
    def squared_integral(self, x: float) -> float:
        """U(x) = integral of y**2 over (0, x]."""

    @abstractmethod
    def first_moment(self, lo: float, hi: float) -> float:
        """Integral of y over [lo, hi) intersected with the support.

        May be +inf for infinite-variation families when lo <= 0.
        """

    @abstractmethod
    def second_moment(self) -> float:
        """Integral of y**2 over the whole support, negative jumps
        included: the measure's part of J''(0)."""

    @abstractmethod
    def total_mass(self) -> float:
        """nu of the whole support; +inf for infinite-activity families."""

    @abstractmethod
    def tail_mass(self, y: float) -> float:
        """nu([y, inf)) for y > 0; a NaN y raises DomainError."""

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
            positive("atom mass", c)
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

    def derivative_measure_part(self, z: np.ndarray, order: int, out=None,
                                scratch=None) -> np.ndarray:
        """Exact sums over the atoms; order 0 gives the part of J itself.

        Every atom below 1, negative ones included, is compensated.  Each
        atom's term is a temporary; ``scratch`` is not used.
        """
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z) if out is None else out
        out[...] = 0.0
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

    def second_moment(self) -> float:
        return sum(c * y * y for y, c in self.atoms)

    def total_mass(self) -> float:
        return sum(c for _, c in self.atoms)

    def tail_mass(self, y: float) -> float:
        number("y", y)
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
    ``_derivative_table``).  The rule and the table are memoized on the
    instance, each built once.
    """

    @abstractmethod
    def _rule(self) -> tuple:
        """y_k, g_k and U(e^-40), then anything else the family keeps."""

    def _rule_part(self, z: np.ndarray, order: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        """J' or J'' by the rule, summed per point, into ``out``."""
        y, g, u_min = self._rule()[:3]
        out = np.empty_like(z) if out is None else out
        if order == 1:
            sums = _rule_sums(z, y, -g, _RULE_N_LOW)
            return np.add(sums, np.multiply(z, u_min, out=out), out=out)
        return np.add(_rule_sums(z, y, g * y, 0), u_min, out=out)

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
            got = _read_table(coef, middle, np.empty_like(middle),
                              Scratch.empty(middle.shape))
            miss = np.abs(got - want)
            if not np.all(miss <= _TABLE_RTOL * np.maximum(1.0, np.abs(want))):
                return None
        return coef

    def derivative_measure_part(self, z: np.ndarray, order: int, out=None,
                                scratch=None) -> np.ndarray:
        """J'' by the rule; J' from the table where it holds, on points
        with z in [0, 3e4), and by the rule on every other point.  The
        table is read in ``scratch``; the rule allocates its own."""
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z) if out is None else out
        coef = self._derivative_table() if order == 1 else None
        if coef is None:
            return self._rule_part(z, order, out)
        scratch = Scratch.empty(z.shape) if scratch is None else scratch
        if z.size and z.min() >= 0.0 and z.max() < _TABLE_Z_MAX:
            return _read_table(coef, z, out, scratch)
        # NaN, inf and z >= z_max (the cells of exploding paths)
        inside = (z >= 0.0) & (z < _TABLE_Z_MAX)
        _read_table(coef, np.where(inside, z, 0.0), out, scratch)
        out[~inside] = self._rule_part(z[~inside], 1)
        return out


@dataclass(frozen=True)
class StableLike(_RuleDensity):
    """Density c * y**(-1-alpha) on (0, y_max], alpha in (0, 2)."""

    c: float
    alpha: float
    y_max: float = 1.0

    def __post_init__(self) -> None:
        positive("c", self.c)
        if positive("alpha", self.alpha) >= 2.0:
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        positive("y_max", self.y_max)

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
        if lo == 0.0 and self.alpha > 1.0 - 1e-12:
            return math.inf
        if abs(self.alpha - 1.0) < 1e-12:
            return self.c * math.log(hi / lo)
        p = 1.0 - self.alpha
        return self.c * (hi ** p - lo ** p) / p

    def second_moment(self) -> float:
        return self.squared_integral(self.y_max)

    def total_mass(self) -> float:
        return math.inf

    def tail_mass(self, y: float) -> float:
        """Infinite where y <= 0 or y^-alpha overflows."""
        if number("y", y) >= self.y_max:
            return 0.0
        if y <= 0.0:
            return math.inf
        try:
            y_pow = y ** -self.alpha
        except OverflowError:
            return math.inf
        return self.c * (y_pow - self.y_max ** -self.alpha) / self.alpha

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The exact inverse of the tail mass."""
        if not 0.0 < eps < self.y_max:
            raise DomainError(f"truncation level must lie in (0, y_max), got {eps}")
        lo_pow = eps ** (-self.alpha)
        hi_pow = self.y_max ** (-self.alpha)
        return (lo_pow - u * (lo_pow - hi_pow)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class GammaLike(MeasureFamily):
    """Density c * y**(-1) * exp(-beta*y) on (0, inf), whose tail mass is
    c E1(beta y), with E1 from ``hjmm._expint`` (within about 1e-15
    relative).  Tail masses are memoized on the instance."""

    c: float
    beta: float

    def __post_init__(self) -> None:
        positive("c", self.c)
        positive("beta", self.beta)

    def density(self, y: float) -> float:
        return self.c * math.exp(-self.beta * y) / y if y > 0.0 else 0.0

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def derivative_measure_part(self, z: np.ndarray, order: int, out=None,
                                scratch=None) -> np.ndarray:
        """The closed form, built in ``out``; ``scratch`` is not used."""
        z = np.asarray(z, dtype=float)
        sigma = np.add(self.beta, z,
                       out=np.empty_like(z) if out is None else out)
        with np.errstate(over="ignore", under="ignore"):
            if order == 1:
                m1 = self.c * (-math.expm1(-self.beta)) / self.beta
                return np.subtract(m1, np.divide(self.c, sigma, out=sigma),
                                   out=sigma)
            return np.divide(self.c, np.multiply(sigma, sigma, out=sigma),
                             out=sigma)

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

    def second_moment(self) -> float:
        # int_0^inf y^2 * c y^{-1} e^{-beta y} dy = c / beta^2
        return self.c / self.beta ** 2

    def total_mass(self) -> float:
        return math.inf

    @_memoized
    def tail_mass(self, y: float) -> float:
        if number("y", y) <= 0.0:
            return math.inf
        return self.c * float(e1(self.beta * y))

    def _tail(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c E1(x) and its -d/ds, c e^-x, at x = beta e^s."""
        x = self.beta * np.exp(s)
        return self.c * e1(x), self.c * np.exp(-x)

    def jump_sizes(self, u: np.ndarray, eps: float) -> np.ndarray:
        """The Newton inverse of c E1(beta y), from a start read off the
        table of E1's inverse, whence one step settles a draw."""
        target = (1.0 - u) * self.tail_mass(
            positive("truncation level eps", eps))
        v = target / self.c
        lo = np.full(target.shape, math.log(eps))
        # E1(x) < e^-x from x = 1 on, so the root lies below this y
        hi = np.log(np.maximum(1.0, -np.log(v)) / self.beta)
        start = np.minimum(np.maximum(
            log_inverse_e1(v) - math.log(self.beta), lo), hi)
        return np.exp(_invert_log_tail(self._tail, target, lo, hi, start))


@dataclass(frozen=True)
class UserDensity(_RuleDensity):
    """Arbitrary density on (0, inf) supplied as a callable.

    The callable is evaluated on floats by the quadrature route and on numpy
    arrays everywhere else, so it must accept both.  It is evaluated once
    on the fixed rule over [e^-40, e^30], and as a float at the rule's
    first node; an exception it raises there becomes DomainError.  Every
    integral of y^k f that the pipeline reads (the moments, U, the total
    and the tail masses) comes from that rule: the sums of its panels, 16
    nodes on the part of a panel at either end of the range, and, below
    e^-40 and beyond e^30, the geometric continuation of the two outermost
    panels, which is exact for a power law.  The continuation to zero or
    infinity reads +inf, a divergent integral, where its panel ratio is 1
    or more (to within 1e-9) or where the decay rate of the integrand in
    ln y still falls by more than 1% from one pair of panels to the next,
    outward: an integrand that decays like a power of ln y (a logarithmic
    divergence, or a convergence too slow to read off the rule) is no
    power law of y.

    The rule of J' and J'' starts at y = e^-40, below which J' and J'' are
    linear in U(e^-40) and no jump is drawn; no jump is drawn above e^30
    either, and a truncation level outside [e^-40, e^30) raises
    DomainError.  The rule ends at the first panel
    edge from e^2 on where the first moment of the tail is at most 1e-12 of
    its value over [1, inf) (at e^22 at the latest).  Where that first
    moment diverges (J'(0) = -inf, (A4) fails), or U(e^-40) does, building
    the rule raises NonIntegrable.  A negative or non-finite density at a
    node raises DomainError.  The rule and the measure-only integrals a
    path simulation asks for are memoized on the instance.  ``a4_certified``
    declares that y^2 is integrable near zero and y near infinity; only
    certified measures participate in the tail-exponent regression of the
    growth classifier.

    A known limit: the 16 nodes of a panel, 2 wide in ln y, do not resolve
    a density that falls super-exponentially across one panel, so its far
    tail masses are off in relative terms.  For e^{-2y} the mass beyond
    e^4 reads 5% low (1.793e-48 against 1.886e-48), below 1e-47 in
    absolute terms and far under any mass the sampler reads.
    """

    density_fn: Callable
    a4_certified: bool = False

    @property
    def density(self) -> Callable:
        """The callable itself, so the quadrature adds no wrapper per call."""
        return self.density_fn

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    @_memoized
    def _span(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nodes y_k, weights w_k and density values f_k of the fixed rule
        on [e^-40, e^30], and each panel's integral of y^j f for j = 0, 1
        and 2 (shape (3, panels))."""
        y, w = _log_rule(_RULE_S_MIN, _SPAN_S_MAX)
        try:
            f = np.broadcast_to(np.asarray(self.density_fn(y), dtype=float),
                                y.shape)
            float(self.density_fn(float(y[0])))  # the quadrature's floats
        except Exception as exc:
            raise DomainError(
                f"density failed on the rule's nodes: {exc}") from exc
        bad = ~(np.isfinite(f) & (f >= 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"density must be finite and nonnegative, got "
                              f"{f[k]} at y = {y[k]:.6g}")
        wf = (w * f).reshape(-1, _RULE_NODES.size)
        yp = y.reshape(wf.shape)
        return y, w, f, np.array([wf.sum(axis=1), (wf * yp).sum(axis=1),
                                  (wf * yp * yp).sum(axis=1)])

    @_memoized
    def _rule(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """Nodes y_k and weights g_k = w_k y_k f(y_k) of the fixed rule,
        U(e^-40), and the mass from the start of each panel up to e^30 on
        (then beyond e^30), which the sampler reads."""
        y, w, f, panels = self._span()
        # each panel's integral of f and of y f from its start on, then
        # beyond the span
        mass, moment = (
            np.cumsum(np.append(p, _continuation(p[::-1], 0.0, math.inf))
                      [::-1])[::-1] for p in panels[:2])
        n_low = _RULE_N_LOW // _RULE_NODES.size
        total = moment[n_low]
        if not math.isfinite(total):
            raise NonIntegrable(
                "UserDensity: the first moment over [1, inf) diverges, so "
                "J'(0) = -inf and (A4) fails")
        u_min = self.squared_integral(math.exp(_RULE_S_MIN))
        if not math.isfinite(u_min):
            raise NonIntegrable("UserDensity: U(e^-40) diverges, so (A4) fails")
        # the first edge from e^2 on where the tail's first moment is small
        # enough, e^22 if none is
        first = n_low + 1
        last = n_low + round(_RULE_S_END_MAX / _RULE_PANEL)
        small = moment[first:last] <= _RULE_TAIL_SHARE * total
        end = first + int(np.argmax(np.append(small, True)))
        n = end * _RULE_NODES.size
        return y[:n], w[:n] * y[:n] * f[:n], u_min, mass

    def _integral(self, k: int, lo: float, hi: float) -> float:
        """The integral of y^k f(y) over [lo, hi), 0 <= lo < hi <= inf: the
        rule's panels within, 16 nodes on the part of a panel at either end,
        and the continuation of the outermost panels outside [e^-40, e^30]."""
        panels = self._span()[3][k]
        s_lo = math.log(lo) if lo > 0.0 else -math.inf
        s_hi = math.log(hi)
        total = 0.0
        if s_lo < _RULE_S_MIN:
            total += _continuation(panels, max(_RULE_S_MIN - s_hi, 0.0),
                                   _RULE_S_MIN - s_lo)
        if s_hi > _SPAN_S_MAX:
            total += _continuation(panels[::-1], max(s_lo - _SPAN_S_MAX, 0.0),
                                   s_hi - _SPAN_S_MAX)
        a, b = max(s_lo, _RULE_S_MIN), min(s_hi, _SPAN_S_MAX)
        if a >= b:
            return total
        # a lies in panel p, b in panel q - 1
        p = math.floor((a - _RULE_S_MIN) / _RULE_PANEL)
        q = math.ceil((b - _RULE_S_MIN) / _RULE_PANEL)
        if q - p == 1:
            return total + self._piece(k, p, a, b)
        return (total + self._piece(k, p, a, _edge(p + 1))
                + float(panels[p + 1:q - 1].sum())
                + self._piece(k, q - 1, _edge(q - 1), b))

    def _piece(self, k: int, p: int, a: float, b: float) -> float:
        """The integral of y^k f(y) over [e^a, e^b] inside panel p: the
        panel's own sum where that is the whole panel, else 16 nodes."""
        if a == _edge(p) and b == _edge(p + 1):
            return float(self._span()[3][k][p])
        part, _ = self._nodes(k, np.array([a]), np.array([0.5 * (b - a)]))
        return float(part[0])

    def _nodes(self, k: int, s: np.ndarray, half: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """For each s, 16 nodes' integral of y^k f(y) over
        [e^s, e^(s + 2 half)] within one panel, and y f(y) at y = e^s.
        Each row is summed on its own, so an entry does not depend on the
        entries evaluated with it."""
        y = np.exp(s[:, None] + half[:, None] * _TAIL_NODES)
        yf = y * np.asarray(self.density_fn(y), dtype=float)
        g = yf[:, :-1] * y[:, :-1] ** k if k else yf[:, :-1]
        return half * np.add.reduce(g * _RULE_WEIGHTS, axis=1), yf[:, -1]

    def _tail(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """nu([e^s, inf)) and y f(y) at y = e^s <= e^30: the mass beyond the
        panel holding s plus 16 nodes from s to the panel's end."""
        tails = self._rule()[3]
        s = np.minimum(s, _SPAN_S_MAX)
        p = np.minimum((s - _RULE_S_MIN) // _RULE_PANEL, tails.size - 2).astype(int)
        piece, slope = self._nodes(0, s, 0.5 * (_edge(p + 1) - s))
        return tails[p + 1] + piece, slope

    def tail_index(self) -> TailIndex | None:
        """The regression of U, for a certified density only."""
        return super().tail_index() if self.a4_certified else None

    def squared_integral(self, x: float) -> float:
        return self._integral(2, 0.0, x) if x > 0.0 else 0.0

    @_memoized
    def first_moment(self, lo: float, hi: float) -> float:
        lo = max(lo, 0.0)
        return self._integral(1, lo, hi) if hi > lo else 0.0

    def second_moment(self) -> float:
        return self._integral(2, 0.0, math.inf)

    @_memoized
    def total_mass(self) -> float:
        return self._integral(0, 0.0, math.inf)

    @_memoized
    def tail_mass(self, y: float) -> float:
        """The sampler's own tail, for y in [e^-40, e^30)."""
        if not y >= math.exp(_RULE_S_MIN):
            raise DomainError(f"truncation level must be at least e^-40, got {y}")
        if y >= math.exp(_SPAN_S_MAX):
            raise DomainError(f"truncation level must lie below e^30, got {y}")
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
        start = _edge(
            np.searchsorted(-self._rule()[3], -target, side="right") - 1)
        lo = np.maximum(start, math.log(eps))
        return np.exp(_invert_log_tail(
            self._tail, target, lo, np.maximum(start + _RULE_PANEL, lo)))
