"""Jump-measure families and their integral primitives.

Four families of Levy measures are supported:

* ``PointMasses`` -- a finite list of atoms (y_k, c_k), i.e. a compound
  Poisson measure.  All integrals reduce to exact sums.
* ``StableLike`` -- density c * y**(-1-alpha) on (0, y_max], alpha in (0, 2).
* ``GammaLike`` -- density c * y**(-1) * exp(-beta*y) on (0, inf).
* ``UserDensity`` -- an arbitrary callable density on (0, inf).

Each family gives the pieces of the Laplace exponent and its derivatives
by two routes:

* one adaptive-quadrature route (``piece_values`` / ``piece_derivatives``),
  written once on ``MeasureFamily`` as integrals of the family's scalar
  ``density(y)`` over its support, with relative tolerance 1e-10 and a
  series fallback for the compensated integrand near z*y = 0.  It serves
  the public exponent operations and is the oracle the vectorized route
  is tested against; ``PointMasses`` replaces it with exact sums; and
* a vectorized route (``derivative_measure_part``) used by the
  fixed-point solver, where thousands of evaluations per iteration are
  needed: a closed form (incomplete gamma, exponential integral, plain
  sums), or a fixed rule for ``UserDensity``, which has none: composite
  Gauss-Legendre in s = ln y, built once per measure from one array call
  of the density.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy import special as sc

from .errors import DomainError, NonIntegrable

__all__ = [
    "MeasureFamily",
    "PointMasses",
    "StableLike",
    "GammaLike",
    "UserDensity",
]

# Relative tolerance demanded from adaptive quadrature.
QUAD_RTOL = 1e-10
# Below this value of |z*y| the compensated integrand switches to its series.
SERIES_THRESHOLD = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

# The fixed rule of UserDensity's J' and J'': panels of this width in
# s = ln y, from this lower end, with 16 Gauss-Legendre nodes each; the
# (points x nodes) temporaries hold this many points at a time.
_RULE_PANEL = 2.0
_RULE_S_MIN = -40.0
_RULE_NODES, _RULE_WEIGHTS = np.polynomial.legendre.leggauss(16)
_RULE_BLOCK = 128


def compensated_exp(w: float) -> float:
    """exp(-w) - 1 + w, evaluated without cancellation for small |w|."""
    if abs(w) < SERIES_THRESHOLD:
        return w * w * (0.5 + w * (-1.0 / 6.0 + w * (1.0 / 24.0 - w / 120.0)))
    return math.expm1(-w) + w


def _compensated(y: float) -> bool:
    """Whether the exponent compensates jumps of size y: all below 1."""
    return y < 1.0


def _memoized(method: Callable) -> Callable:
    """Keep a method's value in the instance's ``_cache``, per argument."""
    @functools.wraps(method)
    def cached(self, *args, **kwargs):
        key = (method.__name__, args, tuple(sorted(kwargs.items())))
        if key not in self._cache:
            self._cache[key] = method(self, *args, **kwargs)
        return self._cache[key]
    return cached


def _quad(f: Callable[[float], float], a: float, b: float, what: str) -> float:
    """Adaptive quadrature that raises NonIntegrable on failure."""
    out = integrate.quad(f, a, b, epsabs=1e-14, epsrel=QUAD_RTOL,
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


def _fixed_gauss(fvals_builder: Callable[[np.ndarray], np.ndarray],
                 a: float, b: float) -> np.ndarray:
    """64-node Gauss-Legendre on [a, b] of a z-vectorized integrand.

    ``fvals_builder`` maps the node array (shape (64,)) to integrand values
    of shape (..., 64); the result is the weighted sum over the last axis.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    ys = mid + half * _GL_NODES
    vals = fvals_builder(ys)
    return half * (vals @ _GL_WEIGHTS)


class MeasureFamily(ABC):
    """Common interface of the jump-measure families.

    The quadrature route below integrates ``self.density(y)``, which every
    family with a density defines on floats y > 0, over a support inside
    [0, inf): (0, min(1, y_max)) compensated, [1, y_max) uncompensated.
    ``PointMasses`` overrides it with exact sums.
    """

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Infimum and supremum of the support."""

    def piece_values(self, z: float) -> tuple[float, float, float]:
        """The three exponent pieces (J1, J2, J3) at z >= 0, quadrature route.

        J1 compensates over the negative part of the support, J2 over (0, 1),
        J3 is the uncompensated piece over [1, inf).
        """
        name = type(self).__name__
        y_max = self.support()[1]
        f = self.density
        j2 = _quad(lambda y: compensated_exp(z * y) * f(y),
                   0.0, min(1.0, y_max), f"{name} J2")
        j3 = 0.0
        if y_max > 1.0:
            j3 = _quad(lambda y: math.expm1(-z * y) * f(y),
                       1.0, y_max, f"{name} J3")
        return 0.0, j2, j3

    def piece_derivatives(self, z: float, order: int) -> float:
        """Sum of the three pieces' derivatives at z >= 0, quadrature route."""
        name = type(self).__name__
        y_max = self.support()[1]
        b1 = min(1.0, y_max)
        f = self.density
        if order == 1:
            total = _quad(lambda y: -math.expm1(-z * y) * y * f(y),
                          0.0, b1, f"{name} J2'")
            if y_max > 1.0:
                total -= _quad(lambda y: math.exp(-z * y) * y * f(y),
                               1.0, y_max, f"{name} J3'")
            return total

        def second(y: float) -> float:
            return math.exp(-z * y) * y * y * f(y)

        total = _quad(second, 0.0, b1, f"{name} J2''")
        if y_max > 1.0:
            total += _quad(second, 1.0, y_max, f"{name} J3''")
        return total

    @abstractmethod
    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """Vectorized J1'+J2'+J3' (order 1) or J1''+J2''+J3'' (order 2)."""

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
    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        """Draw n jump sizes; infinite-activity families condition on y >= eps."""

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

    def piece_values(self, z: float) -> tuple[float, float, float]:
        j1 = j2 = j3 = 0.0
        for y, c in self.atoms:
            if not _compensated(y):
                j3 += c * math.expm1(-z * y)
            elif y < 0.0:
                j1 += c * compensated_exp(z * y)
            else:
                j2 += c * compensated_exp(z * y)
        return j1, j2, j3

    def piece_derivatives(self, z: float, order: int) -> float:
        total = 0.0
        for y, c in self.atoms:
            if order == 1:
                if _compensated(y):
                    total += c * y * (-math.expm1(-z * y))
                else:
                    total += -c * y * math.exp(-z * y)
            else:
                total += c * y * y * math.exp(-z * y)
        return total

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        ys, cs = self._arrays()
        out = np.zeros_like(z)
        with np.errstate(over="ignore", under="ignore"):
            for y, c in zip(ys, cs):
                if order == 2:
                    out += c * y * y * np.exp(-z * y)
                elif _compensated(y):
                    out += c * y * (-np.expm1(-z * y))
                else:
                    out -= c * y * np.exp(-z * y)
        return out

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

    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        # Finite activity: sampled exactly, the truncation level is ignored.
        ys, cs = self._arrays()
        if ys.size == 0:
            return np.empty(0)
        probs = cs / cs.sum()
        idx = rng.choice(ys.size, size=n, p=probs)
        return ys[idx]


@dataclass(frozen=True)
class StableLike(MeasureFamily):
    """Density c * y**(-1-alpha) on (0, y_max], alpha in (0, 2)."""

    c: float
    alpha: float
    y_max: float = 1.0

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise DomainError(f"c must be positive, got {self.c}")
        if not 0.0 < self.alpha < 2.0:
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.y_max <= 0.0:
            raise DomainError(f"y_max must be positive, got {self.y_max}")

    def density(self, y: float) -> float:
        if 0.0 < y <= self.y_max:
            return self.c * y ** (-1.0 - self.alpha)
        return 0.0

    def support(self) -> tuple[float, float]:
        return (0.0, self.y_max)

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        b1 = min(1.0, self.y_max)
        alpha, c = self.alpha, self.c
        w = z * b1
        safe_z = np.where(z > 0, z, 1.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if order == 1:
                if abs(alpha - 1.0) < 1e-8:
                    # int_0^b (1-e^{-zy})/y dy = gamma_E + ln(zb) + E1(zb)
                    body = np.where(
                        w > 0,
                        np.euler_gamma + np.log(np.where(w > 0, w, 1.0))
                        + sc.exp1(np.where(w > 0, w, 1.0)),
                        0.0,
                    )
                    out = c * body
                else:
                    s = 2.0 - alpha
                    t1 = -np.expm1(-w) * b1 ** (1.0 - alpha) / (1.0 - alpha)
                    t2 = np.where(
                        w > 0,
                        safe_z ** (alpha - 1.0) * sc.gamma(s) * sc.gammainc(s, w)
                        / (1.0 - alpha),
                        0.0,
                    )
                    out = c * (t1 - t2)
                if self.y_max > 1.0:
                    out = out + (-c) * _fixed_gauss(
                        lambda ys: np.exp(-np.multiply.outer(z, ys)) * ys ** (-alpha),
                        1.0, self.y_max)
            else:
                s = 2.0 - alpha
                small = np.where(
                    w > 0,
                    safe_z ** (alpha - 2.0) * sc.gamma(s) * sc.gammainc(s, w),
                    b1 ** s / s,
                )
                out = c * small
                if self.y_max > 1.0:
                    out = out + c * _fixed_gauss(
                        lambda ys: np.exp(-np.multiply.outer(z, ys)) * ys ** (1.0 - alpha),
                        1.0, self.y_max)
        return out

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

    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        if eps <= 0.0 or eps >= self.y_max:
            raise DomainError(f"truncation level must lie in (0, y_max), got {eps}")
        u = rng.uniform(size=n)
        lo_pow = eps ** (-self.alpha)
        hi_pow = self.y_max ** (-self.alpha)
        return (lo_pow - u * (lo_pow - hi_pow)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class GammaLike(MeasureFamily):
    """Density c * y**(-1) * exp(-beta*y) on (0, inf)."""

    c: float
    beta: float

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise DomainError(f"c must be positive, got {self.c}")
        if self.beta <= 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")

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

    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        if eps <= 0.0:
            raise DomainError(f"truncation level must be positive, got {eps}")
        if n == 0:
            return np.empty(0)
        u = rng.uniform(size=n)
        base = float(sc.exp1(self.beta * eps))
        target = (1.0 - u) * base
        lo = np.full(n, eps)
        hi_val = eps
        while float(sc.exp1(self.beta * hi_val)) > target.min() and hi_val < 1e12:
            hi_val *= 2.0
        hi = np.full(n, hi_val)
        # exp1 is strictly decreasing; 80 bisection steps pin y to full precision
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            go_right = sc.exp1(self.beta * mid) > target
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class UserDensity(MeasureFamily):
    """Arbitrary density on (0, inf) supplied as a callable.

    The callable is evaluated on floats by the quadrature route and on numpy
    arrays by the solver's rule and the sampler, so it must accept both.
    With no closed form, the solver's J' and J'' come from one fixed rule:
    composite Gauss-Legendre in s = ln y, 16 nodes on each panel of width 2,
    split at y = 1.  It starts at y = e^-40, below which both are linear in
    U(e^-40), and ends where the first moment of the tail falls to 1e-12 of
    its value over [1, inf) (at ~1e9 at the latest).  The density is
    evaluated once, on all nodes; a negative or non-finite value there
    raises DomainError.  The rule, the sampler's inverse table and the
    measure-only integrals a path simulation asks for are computed once per
    measure and argument and kept in ``_cache``.  ``a4_certified``
    declares that y^2 is integrable near zero and y near infinity; only
    certified measures participate in the tail-exponent regression of the
    growth classifier.
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

    def _tail_end(self, lo: float, tail: Callable[[float], float]) -> float:
        """The first y = max(1, 2 lo) * 2^k with tail(y) <= 1e-12 tail(lo),
        or the first one from 1e9 on."""
        hi = max(1.0, 2.0 * lo)
        total = tail(lo)
        while tail(hi) > 1e-12 * total and hi < 1e9:
            hi *= 2.0
        return hi

    @_memoized
    def _rule(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        """Nodes y_k and weights g_k = w_k y_k^2 f(y_k) of the fixed rule,
        the number of nodes below 1, and U(e^-40)."""
        hi = self._tail_end(1.0, lambda y: self.first_moment(y, math.inf))
        n_low = round(-_RULE_S_MIN / _RULE_PANEL)
        starts = _RULE_PANEL * np.arange(
            -n_low, math.ceil(math.log(hi) / _RULE_PANEL))
        half = 0.5 * _RULE_PANEL
        y = np.exp((starts[:, None] + half * (_RULE_NODES + 1.0)).ravel())
        f = np.broadcast_to(np.asarray(self.density_fn(y), dtype=float),
                            y.shape)
        bad = ~(np.isfinite(f) & (f >= 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"density must be finite and nonnegative, got "
                              f"{f[k]} at y = {y[k]:.6g}")
        g = np.tile(half * _RULE_WEIGHTS, starts.size) * y * y * f
        return (y, g, n_low * _RULE_NODES.size,
                self.squared_integral(math.exp(_RULE_S_MIN)))

    def derivative_measure_part(self, z: np.ndarray, order: int) -> np.ndarray:
        """J' or J'' by the fixed rule, summed over blocks of points.

        J'(z) = sum_{y_k<1} g_k (1 - e^{-z y_k}) - sum_{y_k>=1} g_k e^{-z y_k}
        + z U(e^-40) and J''(z) = sum_k g_k y_k e^{-z y_k} + U(e^-40).  Each
        point's value depends on that point alone, whatever the block.
        """
        z = np.asarray(z, dtype=float)
        y, g, n_low, u_min = self._rule()
        neg_y, weight = -y, (-g if order == 1 else g * y)
        flat = z.ravel()
        out = np.empty(flat.size)
        # one (block x nodes) buffer, worked in place
        buf = np.empty((min(_RULE_BLOCK, flat.size), y.size))
        with np.errstate(over="ignore", under="ignore"):
            for i in range(0, flat.size, _RULE_BLOCK):
                zb = flat[i:i + _RULE_BLOCK]
                w = buf[:zb.size]
                np.multiply(zb[:, None], neg_y, out=w)
                if order == 1:
                    np.expm1(w[:, :n_low], out=w[:, :n_low])
                    np.exp(w[:, n_low:], out=w[:, n_low:])
                else:
                    np.exp(w, out=w)
                w *= weight
                out[i:i + _RULE_BLOCK] = w.sum(axis=1) + (
                    zb * u_min if order == 1 else u_min)
        return out.reshape(z.shape)

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
        try:
            return _quad(lambda y: y * float(self.density_fn(y)), lo, hi,
                         "UserDensity first moment")
        except NonIntegrable:
            return math.inf

    def second_moment(self, positive_only: bool = False) -> float:
        try:
            return _quad(lambda y: y * y * float(self.density_fn(y)),
                         0.0, math.inf, "UserDensity second moment")
        except NonIntegrable:
            return math.inf

    @_memoized
    def total_mass(self) -> float:
        try:
            return _quad(lambda y: float(self.density_fn(y)), 0.0, math.inf,
                         "UserDensity total mass")
        except NonIntegrable:
            return math.inf

    @_memoized
    def tail_mass(self, y: float) -> float:
        return _quad(lambda v: float(self.density_fn(v)), y, math.inf,
                     "UserDensity tail mass")

    @_memoized
    def _inverse_table(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        ys = np.geomspace(eps, self._tail_end(eps, self.tail_mass), 4096)
        pdf = np.asarray(self.density(ys), dtype=float)
        cdf = integrate.cumulative_trapezoid(pdf, ys, initial=0.0)
        cdf /= cdf[-1]
        return cdf, ys

    def sample_sizes(self, rng: np.random.Generator, n: int,
                     eps: float) -> np.ndarray:
        if eps <= 0.0:
            raise DomainError(f"truncation level must be positive, got {eps}")
        cdf, ys = self._inverse_table(eps)
        u = rng.uniform(size=n)
        return np.interp(u, cdf, ys)
