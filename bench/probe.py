"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the CPU speed drifts by up to 40% between seconds and
minutes, as other tenants come and go, and no run is long enough to average
that out.  So every timed op is bracketed by this loop, and its time is
scaled to a host on which the loop takes ``REF_S``:

    scaled = measured * REF_S / (mean of the loop's time just before and just after)

The loop does what the program's hot paths do, tuple-keyed dict lookups and
integer multiply-adds, so it slows down with them.  It is part of the
benchmark and never changes with the program.
"""

from time import perf_counter

REF_S = 0.015  # about the loop's typical time on a 2-core 2.0 GHz x86 host


def seconds():
    """The faster of two timings of the calibration loop."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        table, acc = {}, 0
        for i in range(40000):
            key = (i & 63, (i >> 6) & 63)
            acc += table.get(key, 1) * 3
            table[key] = acc & 0xFFFF
        best = min(best, perf_counter() - start)
    return best


class Scaler:
    """Scales each interval by the loop timings taken on either side of it."""

    def __init__(self):
        self.last = seconds()
        self.samples = [self.last]

    def scale(self):
        """Time the loop again and return the factor for the interval since the last call."""
        now = seconds()
        factor = REF_S / ((self.last + now) / 2)
        self.last = now
        self.samples.append(now)
        return factor
