"""Host-speed calibration: a fixed kernel timed next to every measurement.

The shared host this benchmark was built on runs in two speed states about
1.7x apart, switching every few seconds, so the share of a run spent in each
state, not the program, decided raw medians (their run-to-run spread was
30-50%). Every timed unit is therefore bracketed by this kernel, and each of
its samples is scaled by REFERENCE_NS / (mean of the two kernel times): the
figures are host time at the reference speed. The kernel mixes pure-Python
float arithmetic with small-object allocation and 4-vector numpy work, like
the simulator and the estimator, and calls nothing from powerreg, so a change
to the program cannot move it. The unscaled host figure and the median scale
factor are printed as well.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

# Kernel time in the host's fast state (Python 3.11, numpy 2.4, 2 vCPUs); the
# reported times are scaled to this speed.
REFERENCE_NS = 5_000_000


def _python_part(n: int = 3000) -> float:
    t, x, acc = 0.0, 1.0, 0.0
    pairs = []
    for _ in range(n):
        t += 0.1
        x += (2.0 * x - (x - 40.0)) * 1e-4
        acc += max(0.0, 0.5 * x + math.sqrt(t))
        pairs.append((t, x))
    return acc


def _numpy_part(n: int = 400) -> float:
    p = np.eye(4)
    x = np.zeros(4)
    for i in range(n):
        phi = 1.0 + (i % 17) * 0.1
        h = np.array([phi**3, phi**2, phi, 1.0])
        ph = p @ h
        k = ph / (0.98 + h @ ph)
        x = x + k * (1.0 - h @ x)
        p = p - np.outer(k, ph) * 1e-3
        p = (p + p.T) / 2.0
    return float(x[0])


def kernel_ns() -> int:
    """Host nanoseconds of one run of the calibration kernel."""
    t0 = perf_counter_ns()
    _python_part()
    _numpy_part()
    return perf_counter_ns() - t0


class Calibrated:
    """Brackets timed units with the kernel and scales their samples."""

    def __init__(self):
        self._last = kernel_ns()
        self.factors: list[float] = []

    def close_unit(self) -> float:
        """End the unit timed since the last call; return its scale factor."""
        before, self._last = self._last, kernel_ns()
        factor = REFERENCE_NS / ((before + self._last) / 2)
        self.factors.append(factor)
        return factor
