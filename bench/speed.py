"""Job time at a fixed machine speed, for a shared machine whose speed drifts.

On a 2-vCPU x86_64 virtual machine shared with other tenants, the same
Fraction-heavy work ran up to 1.7x faster or slower from one few-second
stretch to the next.  Raw wall times then spread more between runs than any
regression worth catching.  ``SpeedClock`` therefore times a fixed kernel
of Fraction arithmetic (benchmark code, not gorenstein_kit) at the end of
each job and every ``TICK_S`` of CPU time inside it, and scales each slice
of job time by ``NOMINAL_KERNEL_S`` over the median of the latest
``WINDOW`` kernel times, the one that ends the slice included.  The kernel
time itself is left out of the job.  A slice of ``t`` seconds run at the
speed where the kernel takes ``NOMINAL_KERNEL_S`` counts as ``t``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

NOMINAL_KERNEL_S = 0.001
TICK_S = 0.05
# The speed of a slice is the median of the last WINDOW kernel times: one
# kernel run is noisy, and the machine's speed holds for seconds.
WINDOW = 5

_MATRIX = tuple(tuple(Fraction((i + 2 * j) % 3 - 1) for j in range(4)) for i in range(4))


def kernel_s() -> float:
    """Seconds taken by a fixed mix of the work gorenstein_kit does:
    small Fraction matrix products, a Fraction sum with growing
    denominators, and rendering it.  The collector is paused so that a
    collection of the program's objects is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        m = _MATRIX
        for _ in range(2):
            m = tuple(
                tuple(sum((m[i][k] * _MATRIX[k][j] for k in range(4)), Fraction(0)) for j in range(4))
                for i in range(4)
            )
        s = Fraction(0)
        for i in range(1, 120):
            s += Fraction(1, i % 47 + 1)
        str(s)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor() -> float:
    """Reference speed over current speed, from ``WINDOW`` kernel runs."""
    return NOMINAL_KERNEL_S / statistics.median(kernel_s() for _ in range(WINDOW))


class SpeedClock:
    """Raw and speed-scaled time of the intervals between ``start`` and
    ``stop``; ticks come from SIGVTALRM, so nothing else may use it."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._kernels = deque((kernel_s() for _ in range(WINDOW)), maxlen=WINDOW)
        self._last = 0.0
        self._previous = None
        self._running = False

    def _slice(self) -> None:
        end = time.perf_counter()
        self._kernels.append(kernel_s())
        self.raw_s += end - self._last
        self.scaled_s += (end - self._last) * NOMINAL_KERNEL_S / statistics.median(self._kernels)
        self._last = time.perf_counter()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGVTALRM, lambda signum, frame: self._slice())
        self._running = True
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._running = False
        signal.signal(signal.SIGVTALRM, self._previous)
        self._slice()
