"""Host-speed-normalised timing for the benchmark.

The reference host is a share of a busy machine: the same pure-Python loop
runs anywhere from 15 to 30 ms there, and its speed drifts in steps that
last from under a second to minutes.  Raw wall times of one run therefore
move by a quarter or more from one run to the next, whatever the program
does.

A ``Clock`` measures the host's speed while the work runs.  A fixed probe
(interpreter arithmetic, small NumPy products and small LAPACK solves, the
mix the pipeline itself runs) is timed before every unit of work and once
at the end, so every stretch of work lies between two probes.  A stretch's
time is scaled by ``REF_PROBE_S`` over the median of the probes around it:
the figures read as seconds on the reference host at full speed.  The probe shares no code
with ``pesin_coder``, so a change to the program moves the normalised times
as it moves the raw ones; only the host's drift cancels.  Probe time is left
out of every figure, and the raw times go to the report line.
"""
from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# probe time on the reference host (2-core Xeon, CPython 3, numpy, no
# numba) while it ran at full speed: about the first quartile of 300 probes
REF_PROBE_S = 3.0e-3
PROBE_LOOPS = 12000
PROBE_NUMPY = 120
PROBE_SOLVES = 150
# probes each side of a stretch whose median scales it
PROBE_WINDOW = 2
# A probe is the median of up to MAX_REPEATS probe loops, as many as keep
# their time under PROBE_SHARE of the work since the last probe: one
# loop samples a few milliseconds of a speed that moves within a second, so
# long stretches of work get a steadier reading.
PROBE_SHARE = 0.03
MAX_REPEATS = 10

_M = np.array([[2.0, 1.0], [1.0, 1.0]])
_S = np.eye(3) * 1.5


def probe_work() -> float:
    """The probe: interpreter arithmetic, small NumPy products and small
    LAPACK solves.  Its time tracked the pipeline's own front-end time
    within 3% (cv of 15-second medians) while the host's speed moved by 14%."""
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += math.sqrt(i % 97 + 1.0) * (i & 7)
    v = np.array([1.0, 0.5])
    for _ in range(PROBE_NUMPY):
        v = _M @ v
        v = v / np.linalg.norm(v)
    w = np.ones(3)
    for _ in range(PROBE_SOLVES):
        w = np.clip(np.linalg.solve(_S, w), -1.0, 1.0)
    return acc + float(v[0]) + float(w[0])


class Clock:
    """Probes the host between units of work and normalises their times.

    Call ``probe()`` before each unit of work (``unit_start()`` does so and
    returns the unit's start time) and once when the work is done.
    ``normalised(t0, t1)`` then gives the reference-host time of an interval
    that lies between two consecutive probes, and ``normalised_total()``
    that of all work between the first and the last probe.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self):
        t0 = perf_counter()
        repeats = 1
        if self.ends:
            gap = t0 - self.ends[-1]
            repeats = min(MAX_REPEATS,
                          max(1, int(gap * PROBE_SHARE / REF_PROBE_S)))
        loops = []
        for _ in range(repeats):
            t = perf_counter()
            probe_work()
            loops.append(perf_counter() - t)
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self.durations.append(statistics.median(loops))

    def unit_start(self) -> float:
        self.probe()
        return perf_counter()

    def _scale(self, k: int) -> float:
        """Reference over measured speed for the stretch after probe k."""
        lo = max(0, k - PROBE_WINDOW + 1)
        near = self.durations[lo:k + PROBE_WINDOW + 1]
        return REF_PROBE_S / statistics.median(near)

    def _stretch(self, t0: float) -> int:
        k = bisect.bisect_right(self.ends, t0) - 1
        if k < 0 or k + 1 >= len(self.starts):
            raise ValueError("interval is not between two probes")
        return k

    def normalised(self, t0: float, t1: float) -> float:
        k = self._stretch(t0)
        if t1 > self.starts[k + 1]:
            raise ValueError("interval spans a probe")
        return (t1 - t0) * self._scale(k)

    def normalised_total(self) -> float:
        return sum((self.starts[k + 1] - self.ends[k]) * self._scale(k)
                   for k in range(len(self.starts) - 1))

    def raw_total(self) -> float:
        return sum(self.starts[k + 1] - self.ends[k]
                   for k in range(len(self.starts) - 1))

    def speed(self) -> float:
        """Median host speed over the run, as reference over probe time."""
        return REF_PROBE_S / statistics.median(self.durations)
