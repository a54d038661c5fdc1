"""The host's speed, probed with a fixed reference computation while timing.

On a shared host the same work can take twice as long for tens of seconds
at a time, because other tenants load the cores, and CPU time drifts with
wall time, so neither clock removes it. The benchmark therefore runs a short
reference computation (exact rational arithmetic on growing integers, with
dictionary and list work, like the solver's own inner loops) every
``EVERY_S`` seconds from an interval timer's signal handler, so that even a
solve of several seconds is probed while it runs. A timed interval loses the
time its probes took, and is scaled by ``REFERENCE_S`` over the median probe
time in and next to it. On a 2-core Xeon host, solving one CNF formula took
254 to 494 ms as the host's load changed, while its ratio to the probe time
stayed within 171 to 205.

A scaled time reads as seconds on a host that runs the probe in
``REFERENCE_S``. The raw times and the speed factor are printed beside it,
so drift is shown, not dropped. The probe does not touch imtsolver, so a
change to the solver moves the scaled time exactly as much as the raw one.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# about the probe's time on an unloaded core of a 2-core Xeon host
# (CPython 3.11); it only fixes the unit of the scaled times
REFERENCE_S = 0.0015
EVERY_S = 0.2
# probes taken on each side of a timed interval, besides those inside it
NEAR = 3


def _reference_work() -> int:
    acc = Fraction(0)
    table: dict[int, Fraction] = {}
    for i in range(1, 200):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        acc += q * q - Fraction(1, i)
        table[i % 17] = acc
    return len(sorted(table.values()))


def probe() -> float:
    """Fastest of three timings of the reference work."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedLog:
    """Probe times by when they were taken, and what they make of a timed interval."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        # (start, end) of each probe, to take out of the intervals they fall in
        self.busy: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.took.append(probe())
        end = time.perf_counter()
        self.at.append(end)
        self.busy.append((start, end))

    @contextmanager
    def probing(self):
        """Probe every ``EVERY_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def duration(self, start: float, end: float, scaled: bool = True) -> float:
        """``end - start`` without the probes in it; at the reference speed if ``scaled``."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        own = end - start - sum(min(e, end) - max(s, start) for s, e in self.busy[max(0, lo - 1):hi + 1]
                                if e > start and s < end)
        if not scaled:
            return own
        return own * REFERENCE_S / statistics.median(self.took[max(0, lo - NEAR):hi + NEAR])

    def factor(self) -> float:
        """How much slower than the reference the host ran, as the median probe shows."""
        return statistics.median(self.took) / REFERENCE_S
