"""Speed of the machine while the benchmark runs.

On a shared machine other tenants slow this process down by half or more,
in bursts that last from a second to minutes, so raw wall times of one code
drift between runs by more than any bound worth having. While it measures,
the benchmark therefore interrupts itself every INTERVAL_S with a timer
signal and runs ``kernel``, a fixed piece of exact arithmetic that does not
use detform. ``clock`` leaves the kernel's time out of every measurement. A
measured time is then scaled by KERNEL_REFERENCE_S over the median kernel
time within WINDOW_S of it: the time it would have taken on a machine as
fast as the reference. A faster detform shortens the measured time and
leaves the kernel alone, so every gain still shows.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

# Kernel time on an uncontended 2-core x86-64 machine, Python 3.11.7.
KERNEL_REFERENCE_S = 0.0040
INTERVAL_S = 0.08
WINDOW_S = 0.5
MIN_LOCAL_SAMPLES = 5


def _kernel_rows() -> list[dict]:
    rng = random.Random(0)
    return [{c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
             for c in rng.sample(range(20), 6)} for _ in range(20)]


KERNEL_ROWS = _kernel_rows()


def kernel() -> int:
    """Sparse rational elimination in the style of detform's hot loops:
    exact Fractions in dict rows, a fixed 20x20 input."""
    pivots: dict[int, dict] = {}
    for base in KERNEL_ROWS:
        row = dict(base)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            f = row[c] / piv[c]
            for col, v in piv.items():
                acc = row.get(col, 0) - f * v
                if acc:
                    row[col] = acc
                else:
                    row.pop(col, None)
    return len(pivots)


class Calibrator:
    """Kernel samples taken on a timer while the context is active.

    ``starts`` and ``samples`` hold each sample's start (``perf_counter``)
    and duration, in time order; ``spent`` is their total.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> Calibrator:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the kernel so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured between ``perf_counter`` readings
        ``start`` and ``end`` to reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        local = self.samples[lo:hi]
        if len(local) < MIN_LOCAL_SAMPLES:
            local = self.samples
        return KERNEL_REFERENCE_S / statistics.median(local)
