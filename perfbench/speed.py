"""Machine-speed probe: turns measured seconds into reference-speed seconds.

On a shared 2-vCPU virtual machine the same code runs up to ~80 % slower for
tens of seconds to minutes at a time, when a neighbour loads the host; a
whole run can fall in a slow spell, so longer runs do not average it away.
Between operations (outside their timing) the benchmark runs a fixed probe
that does not touch the program: a NumPy sort and sum over 1.6 MB and a loop
of small Python calls, the two kinds of work the program does. Each probe
sample is the geometric mean of the two parts' slowdowns against their
durations on the reference machine (2-vCPU x86_64 VM at 2.1 GHz, Python
3.11.7, NumPy 2.4.6) when nothing else loads its host. A measured time is
divided by the median slowdown of the samples taken around it, so
reference-speed seconds are the seconds the same work takes on that
machine, unloaded. Raw seconds are reported next to them.
"""

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_SORT_S = 2.95e-3    # _sort_part on the reference machine, unloaded (median)
REFERENCE_CALLS_S = 0.94e-3   # _calls_part on the reference machine, unloaded (median)
SAMPLE_EVERY_S = 0.5          # wall time between samples while operations run
WINDOW_S = 3.0                # samples this close to a timed interval set its slowdown

_DATA = np.random.default_rng(0).random(200_000)


def _sort_part():
    s = 0.0
    for _ in range(2):
        s += float(np.sort(_DATA)[100] + (_DATA * _DATA).sum())
    return s


def _call(x, y=2):
    return math.sqrt(x * y + 1.0)


def _calls_part():
    s = 0.0
    for i in range(8000):
        s += _call(i)
    return s


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.times = []       # perf_counter at each sample
        self.slowdowns = []   # measured / reference, > 1 on a slow machine
        self._last = -math.inf

    def sample(self):
        t = time.perf_counter()
        slow = math.sqrt(_timed(_sort_part) / REFERENCE_SORT_S
                         * _timed(_calls_part) / REFERENCE_CALLS_S)
        self.times.append(t)
        self.slowdowns.append(slow)
        self._last = time.perf_counter()

    def maybe_sample(self):
        """Sample if SAMPLE_EVERY_S have passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, start, end):
        """Median slowdown of the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.slowdowns[lo:hi]
        if not near:  # no sample that close: use the nearest one on each side
            i = bisect.bisect_left(self.times, start)
            near = self.slowdowns[max(i - 1, 0):i + 1]
        return statistics.median(near)

    def median(self):
        return statistics.median(self.slowdowns)
