"""Host speed sampled while the benchmark runs, to normalize its times.

The host this benchmark was built on drifts between fast and slow regimes
that last from under a second to minutes: one operation ran 1.8x slower in
one window than in another, with CPU time equal to wall time. Averaging
inside a run cannot remove a regime that covers most of it, so every time
is scaled to a reference speed instead.

While measuring, SIGALRM fires every SAMPLE_EVERY_S and the handler times a
fixed piece of pure-Python work like qstab's: Fraction additions and small
tuple, list and dict allocations. Over 27 windows spanning both regimes,
this mix tracked a ring-8 certify and a ring-8 martingale run with a
residual of 7% per window, against 24% unscaled.

An operation's time is its wall time minus the samples taken inside it,
multiplied by REF_SAMPLE_S / (median sample time within WINDOW_S of it).
A long operation is thus scaled by the speed measured while it ran, a short
one by the speed just around it. README.md gives the measured effect.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.15
REF_SAMPLE_S = 0.0004    # sample time that defines one reference second


def _sample_work() -> int:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    table = {(i, 3 * i): [i] * 3 for i in range(300)}
    return total.denominator + len(table)


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a late signal must not nest inside the handler
            return
        self._busy = True
        t0 = perf_counter()
        _sample_work()
        self.samples.append((t0, perf_counter()))
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample on a timer inside the block; restore the old handler after."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            self.sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the handler spent sampling between t0 and t1."""
        starts = [s for s, _ in self.samples]
        return sum(e - s for s, e in
                   self.samples[bisect_left(starts, t0):bisect_right(starts, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]."""
        starts = [s for s, _ in self.samples]
        lo = min(bisect_left(starts, t0 - WINDOW_S), len(starts) - 1)
        hi = max(bisect_right(starts, t1 + WINDOW_S), lo + 1)
        return REF_SAMPLE_S / statistics.median(e - s for s, e in self.samples[lo:hi])

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of work done between t0 and t1, samples excluded."""
        return (t1 - t0 - self.inside(t0, t1)) * self.factor(t0, t1)

    def median_sample_s(self) -> float:
        return statistics.median(e - s for s, e in self.samples) if self.samples else 0.0
