"""Timing at a reference speed.

The effective speed of a shared two-core machine drifts by tens of percent
over seconds, as neighbours come and go, and the drift hits the package and
any fixed piece of Python code alike.  So while a ``Clock`` runs, a timer
signal interrupts the process every ``PERIOD_S`` seconds to time
``reference()``, a fixed mix of Fraction arithmetic, dict and tuple work
that shares no code with the package.  Each measured span then has the
handler's own time removed and is scaled by ``REFERENCE_S`` over the mean
time of the reference runs taken during it (or, for a span shorter than the
period, of the runs just before and after it).  Durations therefore read as
seconds on a machine where ``reference()`` takes ``REFERENCE_S``; a slower
program still reads slower by the same factor.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

REFERENCE_S = 0.004
PERIOD_S = 0.1


def reference() -> list:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 800):
        acc += Fraction(i % 5 - 2, i % 11 + 1)
        key = (i % 17, i % 23)
        table[key] = table.get(key, 0) + acc.denominator % 7
    return sorted(table.items())


class Clock:
    """Use as a context manager around the measured loop, which records the
    ``time.perf_counter()`` start and end of each operation into a flat
    array; ``durations`` then turns that array into scaled durations.
    ``stolen`` is the running total of seconds spent in reference runs."""

    def __init__(self) -> None:
        self._starts = array("d")
        self._ends = array("d")
        self._previous = None
        self._sampling = False
        self.stolen = 0.0

    def sample(self, *_signal_args) -> None:
        """Time one reference run; also called directly, so a timer signal
        arriving meanwhile is skipped rather than nested."""
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self.stolen += end - start
        self._sampling = False

    def __enter__(self) -> "Clock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def durations(self, spans: array) -> array:
        starts, ends = self._starts, self._ends
        # Prefix sums of reference time, to subtract and average by index.
        cost = [0.0]
        for s, e in zip(starts, ends):
            cost.append(cost[-1] + (e - s))
        out = array("d")
        for k in range(0, len(spans), 2):
            t0, t1 = spans[k], spans[k + 1]
            # A reference run interrupts the main code between bytecodes, so
            # it lies wholly inside or wholly outside each span.
            first = bisect.bisect_left(starts, t0)
            last = bisect.bisect_left(starts, t1)
            raw = t1 - t0 - (cost[last] - cost[first])
            if last == first:  # none inside: use the runs on either side
                first, last = first - 1, first + 1
            ref = (cost[last] - cost[first]) / (last - first)
            out.append(raw * REFERENCE_S / ref)
        return out
