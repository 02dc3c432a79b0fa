"""Correct timings for the speed of a shared host.

On a host shared with other guests, the same pure-Python code can run at
half speed for seconds at a time and then at full speed again.  Timing a
workload against the wall clock alone then measures the neighbours more
than the code.

``Sampler`` measures the host's speed while the workload runs.  A real-time
interval timer (``SIGALRM``) interrupts the main thread at a fixed wall-clock
interval, and the handler times one run of ``reference``, a fixed piece of
exact ``Fraction`` arithmetic that uses only the standard library.  So the
samples fall uniformly over the timed work, including the middle of long
decisions.  The handler records a sample only while ``active`` is set.

The caller takes the handler's own time (``spent``) out of a timed region
and multiplies what is left by ``speed`` of the region's samples.  That
gives reference seconds: the time the work would take on a host where
``reference`` takes ``REFERENCE_S``.  ``speed`` is the mean of
``REFERENCE_S / sample``, the reference work done per second averaged
uniformly over the region's time.  ``local_speeds`` does this for each of
a sequence of regions, some of them shorter than the interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The reference runs in about this many seconds on the host the benchmark
# was written on when no neighbour is busy (0.6-1.4 ms was seen there).
REFERENCE_S = 7e-4

_HILBERT = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]


def reference() -> Fraction:
    """Gaussian elimination of the 8x8 Hilbert matrix in exact arithmetic."""
    m = [row[:] for row in _HILBERT]
    for c in range(len(m)):
        pivot = m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / pivot
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[-1][-1]


class Sampler:
    """Times ``reference`` every ``interval`` wall seconds while ``active``.

    ``spent`` is the total time the samples took; a timed region subtracts
    its growth over the region to get the time of its own work.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.active = False
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        disarm()
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.active = False

    def take(self) -> list[float]:
        """The samples since the last ``take``."""
        samples, self.samples = self.samples, []
        return samples


def disarm() -> None:
    """Stop the interval timer, so that no SIGALRM kills an exiting process."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def speed(samples: list[float]) -> float:
    """Reference seconds per wall second over the samples' time."""
    if not samples:
        raise ValueError("no host-speed samples: the timed work was shorter than the interval")
    return statistics.fmean(REFERENCE_S / s for s in samples)


def local_speeds(samples: list[float], spans: list[tuple[int, int]], width: int = 3) -> list[float]:
    """The host speed during each timed region of a sequence.

    ``spans[i]`` is the range of ``samples`` taken during region ``i``.  A
    region with samples of its own gets their speed; a region shorter than
    the interval gets the speed of the ``width`` samples on either side of
    it, a few tenths of a second against slow phases that last seconds.
    """
    if not samples:
        raise ValueError("no host-speed samples: the timed work was shorter than the interval")
    out = []
    for lo, hi in spans:
        if hi <= lo:
            lo, hi = max(0, lo - width), min(len(samples), hi + width)
        out.append(speed(samples[lo:hi]))
    return out
