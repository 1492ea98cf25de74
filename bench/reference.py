"""A fixed reference computation that gauges the machine's current speed.

The benchmark runs on small shared virtual machines whose speed drifts
by tens of percent over minutes: other tenants take CPU time or share
the core's caches, and the clock frequency follows the host's load.
``worker.py`` therefore runs ``unit`` between operations and scales each
end-to-end time by ``UNIT_S / seconds per unit measured beside it``.
Times are so reported as they would read on the machine where
``UNIT_S`` was measured, at that machine's steady speed.

``unit`` never calls hjmm, so a change to the program cannot move it.
It mixes the kinds of work the workloads do: numpy calls on short rows
(the solver's per-time-slice bookkeeping), a scalar interpreter loop
with math calls (quadrature callbacks) and an array kernel about the
size of a fine grid.
"""

from __future__ import annotations

import math
import time

import numpy as np

# seconds per unit on the 2-vCPU VM where baseline.json was measured
UNIT_S = 0.32e-3

_ROWS = np.linspace(0.0, 1.0, 34 * 65).reshape(34, 65)
_GRID = np.linspace(0.0, 1.0, 16384)


def unit() -> float:
    """One unit of reference work (about 0.3 ms on the baseline VM)."""
    total = 0.0
    for i in range(0, 33, 3):
        row = _ROWS[i, i:]
        total += float(np.trapezoid(row * row * np.exp(row), dx=0.03))
    for i in range(1, 400):
        total += math.exp(-2e-3 * i) / i
    return total + float(np.cumsum(np.exp(-_GRID) * _GRID)[-1])


class SpeedGauge:
    """Reference units run beside timed work, in a fixed share of its time."""

    def __init__(self, share: float) -> None:
        self.share = share
        self.work_s = 0.0
        self.unit_s = 0.0
        unit()  # first call pays for lazy set-up inside numpy

    def after(self, work_s: float) -> tuple[float, int]:
        """Run units after ``work_s`` seconds of timed work.

        At least one unit runs, then more until the units have taken
        ``share`` of all timed work so far.  Returns (seconds, units)
        of this round.
        """
        self.work_s += work_s
        spent, n = 0.0, 0
        while n == 0 or self.unit_s < self.share * self.work_s:
            t0 = time.perf_counter()
            unit()
            dt = time.perf_counter() - t0
            spent += dt
            self.unit_s += dt
            n += 1
        return spent, n


def speed_scale(seconds: float) -> float:
    """Run units for ``seconds``; the factor that brings times measured now
    to the speed of the machine where UNIT_S was measured."""
    spent, n = 0.0, 0
    while spent < seconds:
        t0 = time.perf_counter()
        unit()
        spent += time.perf_counter() - t0
        n += 1
    return UNIT_S * n / spent
