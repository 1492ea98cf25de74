"""Generate the coefficients of the exponential integral E1 for x > 1.

``hjmm._expint`` evaluates E1(x) = e^-x / x * g(t) for x > 1, where
t = 1/x and g(t) = x e^x E1(x), by one polynomial in (t - middle) on each
panel of t in [0, 1/16], [1/16, 1/8], [1/8, 1/4], [1/4, 1/2] and
[1/2, 1].  Each polynomial interpolates g at the 17 Chebyshev points of
its panel, computed with mpmath at 40 significant digits and rounded to
double precision once, as the last step.  Its interpolation error is
below 1e-16 relative to g on every panel.

    python tools/e1_coefficients.py            print the generated block
    python tools/e1_coefficients.py --write    write it into _expint.py

The block lies between the two marker lines of ``src/hjmm/_expint.py``;
``tests/test_expint.py`` checks that the committed block is this script's
output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

MODULE = Path(__file__).resolve().parents[1] / "src" / "hjmm" / "_expint.py"
BEGIN = "# BEGIN generated by tools/e1_coefficients.py\n"
END = "# END generated\n"

EDGES = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
DEGREE = 16
DIGITS = 40


def _g(t: mp.mpf) -> mp.mpf:
    """x e^x E1(x) at x = 1/t; its limit 1 at t = 0."""
    if t == 0:
        return mp.mpf(1)
    x = 1 / t
    return x * mp.exp(x) * mp.e1(x)


def panel_coefficients(a: float, b: float) -> list[float]:
    """Power coefficients in (t - (a+b)/2), constant first, of the
    interpolant of g at the Chebyshev points of [a, b]."""
    n = DEGREE + 1
    middle, half = (mp.mpf(a) + b) / 2, (mp.mpf(b) - a) / 2
    angles = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    values = [_g(middle + half * mp.cos(theta)) for theta in angles]
    cheb = [2 * mp.fsum(v * mp.cos(j * theta)
                        for v, theta in zip(values, angles)) / n
            for j in range(n)]
    cheb[0] /= 2
    # T_j as power series in s = (t - middle) / half:
    # T_{j+1}(s) = 2 s T_j(s) - T_{j-1}(s)
    chebyshev = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    while len(chebyshev) < n:
        up = [mp.mpf(0)] + [2 * c for c in chebyshev[-1]]
        for i, c in enumerate(chebyshev[-2]):
            up[i] -= c
        chebyshev.append(up)
    power = [mp.fsum(cheb[j] * t_j[i] for j, t_j in enumerate(chebyshev)
                     if i < len(t_j))
             for i in range(n)]
    return [float(p / half ** i) for i, p in enumerate(power)]


def block() -> str:
    """The generated source block, marker lines included."""
    with mp.workdps(DIGITS):
        panels = [panel_coefficients(a, b) for a, b in zip(EDGES, EDGES[1:])]
    lines = [BEGIN,
             f"_PANEL_EDGES = {EDGES[1:-1]!r}\n",
             "_PANEL_MIDDLES = "
             f"{tuple((a + b) / 2 for a, b in zip(EDGES, EDGES[1:]))!r}\n",
             "_PANEL_COEF = np.array([\n"]
    for coef in panels:
        lines.append("    [\n")
        for i in range(0, len(coef), 3):
            row = ", ".join(repr(c) for c in coef[i:i + 3])
            lines.append(f"        {row},\n")
        lines.append("    ],\n")
    lines += ["])\n", END]
    return "".join(lines)


def committed_block() -> str:
    """The block as ``_expint.py`` holds it now."""
    text = MODULE.read_text(encoding="utf-8")
    return text[text.index(BEGIN):text.index(END) + len(END)]


def main(argv: list[str]) -> int:
    new = block()
    if argv[1:] == ["--write"]:
        text = MODULE.read_text(encoding="utf-8")
        MODULE.write_text(text.replace(committed_block(), new),
                          encoding="utf-8")
    elif argv[1:]:
        print(__doc__)
        return 2
    else:
        sys.stdout.write(new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
