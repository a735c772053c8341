"""Machine-speed reference that the timed run scales its times by.

The machine the benchmark was written on shares its cores with other
tenants.  It switches, for stretches of seconds to minutes, between states
in which the same code runs up to 1.35 times slower; bpblab's tasks slow by
1.26-1.35 times, as do the three kernels below: an interpreter loop, numpy
on 16k-row arrays and a small HiGHS LP, the three kinds of work bpblab
does.  None of them calls bpblab, so a change to bpblab leaves them as
they are.

A time t measured while the reference takes r is reported as
t * NOMINAL_S / r, the time t would take on the machine in its fast state.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.optimize import linprog

NOMINAL_S = 7.5e-3  # reference time in the fast state of a 2-core Xeon VM

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((16384, 3))
_BASIS = _rng.standard_normal((3, 3))
_LP_A = _rng.standard_normal((60, 9))
_LP_B = np.ones(60)


def _interpreter():
    s = 0
    for i in range(20000):
        s += i * i
    return s


def _arrays():
    return sum(float(np.abs(_ROWS @ _BASIS).max(axis=1).sum()) for _ in range(5))


def _lp():
    return linprog(np.ones(9), A_ub=_LP_A, b_ub=_LP_B, bounds=[(-2.0, 2.0)] * 9, method="highs")


KERNELS = (_interpreter, _arrays, _lp)


def reference_seconds():
    """One reference sample: each kernel's least time of two runs, summed.

    The first run after a task pays for the caches the task evicted, which
    depends on bpblab; the second does not.
    """
    total = 0.0
    for kernel in KERNELS:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


class Meter:
    """Samples the reference at most every `interval` seconds of a pass."""

    def __init__(self, interval=0.25):
        self.interval = interval
        self.samples = []
        self.last = -math.inf

    def tick(self):
        if time.perf_counter() - self.last >= self.interval:
            self.samples.append(reference_seconds())
            self.last = time.perf_counter()

    def scale(self):
        """NOMINAL_S over the median sample since the last call; resets."""
        factor = NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        self.last = -math.inf
        return factor
