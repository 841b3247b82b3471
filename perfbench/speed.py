"""Machine-speed reference: a fixed kernel timed between ops.

On a shared host the same op can take 30 % longer for seconds to minutes, so
raw wall times of two runs are not comparable. The run therefore times a
fixed reference kernel between ops: once per ``EVERY_S`` of elapsed time, up
to ``MAX_RUNS`` runs in a row after a long op. The kernel does the same kind
of work as blochpulse's hot paths: scalar spline calls, 2x2 complex matrix
products and float formatting in a Python loop, then whole-grid array work
and spline construction. It uses only numpy and scipy, never blochpulse, so
no change to the program can change its cost. Each op time is scaled by
``NOMINAL_S / p``, where ``p`` is the median kernel time within ``WINDOW_S``
before or after that op. The run prints raw times beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

NOMINAL_S = 2.0e-3  # kernel time on the reference machine (see README.md)
EVERY_S = 0.05  # one kernel run per this much elapsed time
WINDOW_S = 0.25  # kernel runs up to this far before or after an op scale it
MAX_RUNS = 5  # most kernel runs in a row, after a long op

_T = np.linspace(0.0, 1.0, 101)
_SPLINE = CubicSpline(_T, np.sin(3.0 * _T))
_GRID = np.linspace(-1.0, 1.0, 1201)


def kernel() -> str:
    """The fixed reference work (NOMINAL_S at nominal speed).

    Half scalar work in a Python loop, as in the integrators' steps; half
    whole-grid array work and spline construction, as in synthesis.
    """
    rho = np.eye(2, dtype=complex)
    h = np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex)
    text = []
    for i in range(100):
        a = float(_SPLINE(i / 100.0))
        h[0, 1] = h[1, 0] = a
        rho = rho + 1e-3 * (-1j) * (h @ rho - rho @ h)
        text.append(f"{a:.17g}")
    for _ in range(2):
        y = np.exp(-_GRID ** 2) * np.cos(3.0 * _GRID)
        z = CubicSpline(_GRID, y).antiderivative()(_GRID) + np.sqrt(np.clip(1.0 - y * y, 0.0, None))
    text.append(f"{z[-1]:.17g}")
    return ",".join(text)


class SpeedProbe:
    """Runs the kernel between ops and keeps the time of every run."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._last = float("-inf")

    def maybe_run(self) -> None:
        """Run the kernel once per ``EVERY_S`` elapsed since the last run, at most ``MAX_RUNS`` times."""
        elapsed = time.perf_counter() - self._last
        runs = MAX_RUNS if elapsed >= MAX_RUNS * EVERY_S else int(elapsed / EVERY_S)
        for _ in range(runs):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.starts.append(start)
            self.times.append(self._last - start)

    def run(self, repeats: int) -> float:
        """Median kernel time over ``repeats`` back-to-back runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, starts: list[float], times: list[float]) -> list[float]:
        """Op times scaled to nominal speed by the kernel runs around each op."""
        out = []
        for start, dt in zip(starts, times):
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, start + dt + WINDOW_S)
            local = self.times[lo:hi] or self.times
            out.append(dt * NOMINAL_S / statistics.median(local))
        return out
