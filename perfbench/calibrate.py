"""Host-speed calibration of a worker's times.

On a shared host the CPU a worker gets changes speed from second to second,
by up to a third within a minute, while the worker's CPU time stays equal to
its wall time.  Raw times of the same inputs then spread more than any bound
a change could be judged by.  So every time the benchmark reports is
calibrated against a reference kernel timed during the same seconds:

- An interval timer (``SIGALRM``) interrupts the worker every ``PERIOD_S``.
  The handler times one run of the reference kernel: exact Gauss-Jordan
  elimination on a 4 x 5 matrix of ``Fraction``s.  It calls no mcred code,
  so no change to the program moves it.
- A tick's speed factor is ``NOMINAL_S`` over the median kernel time of the
  ``SMOOTH`` ticks around it.  The median drops a tick that a collection or a
  preemption slowed down.
- An interval's raw time is its length minus the ticks inside it.  Its
  calibrated time is the raw time times the mean factor of the ticks inside
  it, or the factor of the nearest tick when none falls inside.

A calibrated time is the time the interval would take on a host where the
kernel takes ``NOMINAL_S``.  The handler costs about one per cent of a run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# Kernel time that defines the reference speed: the median inside a worker
# on a 2-core x86-64 VM (Python 3.11), so that calibrated and raw times
# there are of the same size.
NOMINAL_S = 0.00045
SMOOTH = 5

_MATRIX = [[Fraction(1, i + j + 1) for j in range(4)] + [Fraction(i + 1)]
           for i in range(4)]


def kernel():
    """Reduce a Hilbert matrix with one extra column to row echelon form."""
    m = [row[:] for row in _MATRIX]
    for c in range(4):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(4):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def factors(lengths):
    """Speed factor of each tick from the kernel times of all ticks."""
    half = SMOOTH // 2
    n = len(lengths)
    return [NOMINAL_S / statistics.median(lengths[max(0, k - half):k + half + 1])
            for k in range(n)]


class Calibrator:
    def __init__(self):
        self.starts = []
        self.lengths = []
        self._factors = None

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.lengths.append(time.perf_counter() - t)

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self._factors = factors(self.lengths)

    def measure(self, a, b):
        """``(raw, calibrated)`` seconds of the interval ``[a, b)``; call
        after :meth:`stop`."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        raw = (b - a) - sum(self.lengths[i:j])
        if j > i:
            factor = statistics.fmean(self._factors[i:j])
        else:
            near = [k for k in (i - 1, i) if 0 <= k < len(self.starts)]
            k = min(near, key=lambda k: min(abs(self.starts[k] - a),
                                            abs(self.starts[k] - b)))
            factor = self._factors[k]
        return raw, raw * factor

    def speed(self, a, b):
        """Median factor of the ticks in ``[a, b)``: above 1 when the host
        ran faster than the reference speed."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        return statistics.median(self._factors[i:j] or self._factors)
