"""The exponential integral E1(x) = integral of e^-t / t over [x, inf),
in numpy, and a start for inverting it.

:func:`e1` splits its elements at x = 1 and evaluates each side in one
fixed form:

* x <= 1: the series -gamma - ln x + sum_{k=1}^{17} (-1)^(k+1) x^k / (k k!),
  whose coefficients are exact rationals rounded once; the first omitted
  term is below 4e-17 of E1 at x = 1;
* x > 1: e^-x / x * g(1/x), where g(t) = x e^x E1(x) is one polynomial
  of degree 16 on each of five panels of t, interpolated at Chebyshev
  points by ``tools/e1_coefficients.py`` with mpmath (interpolation error
  below 1e-16).

Both are Horner's rule, element by element, with no reduction across
elements, so each value is the one its element gets alone.  On x in
[1e-300, 700] E1 is within about 1e-15 relative of mpmath's, as
``scipy.special.exp1`` is; as there, E1(0) = inf, E1(inf) = 0, E1
underflows to 0 beyond x ~ 745, and a NaN or negative x gives NaN.

:func:`log_inverse_e1` reads ln x with E1(x) = v off a cubic Hermite
table of ln x against ln E1(x), to within about 1e-10: one Newton step
on E1 from there settles a root.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# 1/(k k!) (-1)^(k+1), k = 1..17: the series of gamma + ln x + E1(x)
_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k))
                for k in range(1, 18))

# BEGIN generated by tools/e1_coefficients.py
_PANEL_EDGES = (0.0625, 0.125, 0.25, 0.5)
_PANEL_MIDDLES = (0.03125, 0.09375, 0.1875, 0.375, 0.75)
_PANEL_COEF = np.array([
    [
        0.970539884074664, -0.8901175828450999, 1.5494257470280766,
        -3.8530916048315205, 12.205606988292171, -46.298630967007504,
        202.36808817856954, -993.0374546280715, 5369.148865153363,
        -31538.348461449776, 199101.73718176453, -1342377.3129221755,
        9559610.475621343, -68105971.46084955, 529113653.1087278,
        -6337773619.860908, 55064669706.53467,
    ],
    [
        0.9201706542494457, -0.732348084375462, 1.0325520416207599,
        -1.9670145850621026, 4.557135122398559, -12.1550971260558,
        36.11241102924456, -116.92827191071756, 406.35415629881925,
        -1498.767558482344, 5817.021738076451, -23601.177516887812,
        99555.96196304895, -433095.7168054699, 1950091.066920357,
        -9997628.161842482, 47721091.74750882,
    ],
    [
        0.8592503002464433, -0.5791212527687543, 0.6489124580229005,
        -0.9389073245095633, 1.5963435652234288, -3.0409616125711296,
        6.311002609431699, -14.012147340649667, 32.86859519945566,
        -80.71890070419511, 206.11898553234667, -544.5355752000696,
        1481.3268116527684, -4094.902188696986, 11694.607159930662,
        -40173.83359079205, 120130.2595808082,
    ],
    [
        0.768752189048245, -0.40557695958283985, 0.3310181335654752,
        -0.3330920647946638, 0.38116326076990886, -0.476758764671538,
        0.6371228047671427, -0.8965526835097352, 1.3153788100722932,
        -1.9977907567467286, 3.1245019236930403, -5.015570168412644,
        8.224142832082475, -13.465147620943386, 22.874871867017042,
        -49.86931516868262, 87.82522485486052,
    ],
    [
        0.6508128537230682, -0.24697332269398864, 0.13497817336213133,
        -0.0872294388645307, 0.062333099027910614, -0.047702670703922374,
        0.038395321549017244, -0.032135561772006334, 0.027754044667021138,
        -0.024597986215652234, 0.02228351960186793, -0.02060649492359709,
        0.019336207126931265, -0.0177577728992703, 0.01709279970975672,
        -0.022573708180172347, 0.022348603587625034,
    ],
])
# END generated

# The inverse table: nodes at ln x = -24 + k/128 up to ln x = 6.5.  Above
# its range of ln E1 (x < e^-24), ln x = -gamma - E1 to within x.
_INVERSE_LOG_X = (-24.0, 6.5)
_INVERSE_STEP = 1.0 / 128.0


def _series(x: np.ndarray) -> np.ndarray:
    """E1 by its series, for x <= 1."""
    p = _SERIES[-1]
    for c in _SERIES[-2::-1]:
        p = p * x + c
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p * x - np.euler_gamma) - np.log(x)


def _panels(x: np.ndarray) -> np.ndarray:
    """E1 as e^-x / x * g(1/x), for x > 1 or NaN."""
    t = 1.0 / x
    # a NaN t sorts last, into the last panel
    panel = np.searchsorted(_PANEL_EDGES, t, side="right")
    coef = _PANEL_COEF[panel]
    tau = t - np.take(_PANEL_MIDDLES, panel)
    g = coef[..., -1]
    for j in range(coef.shape[-1] - 2, -1, -1):
        g = g * tau + coef[..., j]
    return np.exp(-x) * t * g


def e1(x) -> np.ndarray:
    """E1 of each element of x (a float array, or a float)."""
    x = np.asarray(x, dtype=float)
    small = x <= 1.0
    out = np.empty_like(x)
    out[small] = _series(x[small])
    out[~small] = _panels(x[~small])
    return out


@functools.cache
def _inverse_table() -> tuple[np.ndarray, np.ndarray]:
    """The nodes w_k = ln E1(x_k), ascending, and the power coefficients
    (shape (4, intervals), constant first) of each interval's cubic in
    w - w_k: the Hermite interpolant of ln x and d ln x / d ln E1 =
    -E1(x) e^x."""
    lo, hi = _INVERSE_LOG_X
    log_x = np.linspace(lo, hi, round((hi - lo) / _INVERSE_STEP) + 1)[::-1]
    x = np.exp(log_x)
    v = e1(x)
    w = np.log(v)
    slope = -v / np.exp(-x)
    dw = np.diff(w)
    secant = np.diff(log_x) / dw
    d0, d1 = slope[:-1], slope[1:]
    return w, np.array([log_x[:-1], d0, (3.0 * secant - 2.0 * d0 - d1) / dw,
                        (d0 + d1 - 2.0 * secant) / dw ** 2])


def log_inverse_e1(v: np.ndarray) -> np.ndarray:
    """ln x with E1(x) = v, for each v > 0: within about 1e-10 where
    x <= e^6.5, and ln x at x = e^6.5 where x is larger."""
    w_nodes, coef = _inverse_table()
    w = np.log(v)
    inside = np.clip(w, w_nodes[0], w_nodes[-1])
    k = np.searchsorted(w_nodes, inside, side="right") - 1
    k = np.minimum(k, coef.shape[1] - 1)
    tau = inside - w_nodes[k]
    log_x = coef[3][k]
    for c in coef[2::-1]:
        log_x = log_x * tau + c[k]
    return np.where(w > w_nodes[-1], -np.euler_gamma - v, log_x)
