"""Machine-speed calibration of measured times.

The speed of the machines this benchmark runs on drifts: on a 2-vCPU VM, a
fixed exact-arithmetic loop took 3.8 ms in some 5-second windows and 7.0 ms in
others, with no other process running in the VM.  A 30-second run therefore
sees a different mix of fast and slow periods each time, and its raw medians
moved by 14-44% from run to run.

A fixed probe runs between jobs and measures the machine's speed at that
moment.  Every timed interval is scaled by ``PROBE_S`` over the mean of the
probe readings just before and just after it, so times read as seconds on a
machine on which the probe takes ``PROBE_S``.  The probe never calls walras,
so a change to the program cannot move it.

The probe has two parts, because a slow period does not slow all Python code
alike: an exact-arithmetic fold like the welfare DP, and a loop over dicts and
tuples like the equilibrium search.  Measured in one process over five
minutes, the sum of the two tracked jobs of all three workloads better than
either part alone (the spread of job time over probe time fell by a fifth to
two fifths).  Changing the probe or ``PROBE_S`` changes every time
metric and needs a new baseline.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

PROBE_S = 0.006
_TABLE = tuple(Fraction(i % 9, 1 + i % 4) for i in range(64))


def probe() -> float:
    """Seconds a fixed Fraction fold and a fixed dict-and-tuple loop take
    right now.

    The cyclic garbage collector is off while it runs, so the probe does not
    pay for collecting the garbage the job before it left behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _fold() + _lookups()
    finally:
        if collecting:
            gc.enable()


def _fold() -> float:
    start = time.perf_counter()
    cur = [Fraction(0)] * 64
    for _ in range(2):
        nxt = list(cur)
        for idx in range(64):
            best = nxt[idx]
            sub = idx
            while sub:
                cand = _TABLE[sub] + cur[idx - sub]
                if cand > best:
                    best = cand
                sub = (sub - 1) & idx
            nxt[idx] = best
        cur = nxt
    return time.perf_counter() - start


def _lookups() -> float:
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    acc = 0
    for i in range(2500):
        key = (i % 37, i % 11, i & 3)
        counts[key] = counts.get(key, 0) + i
        if key in counts:
            acc += 1
    for key, value in sorted(counts.items()):
        acc += key[0] * value
    acc += sum(len(t) for t in [tuple(range(i % 7)) for i in range(600)])
    return time.perf_counter() - start


class CalibratedClock:
    """Measured intervals, each followed by a probe reading.

    Interval ``i`` lies between probe readings ``i`` and ``i + 1`` and is
    scaled by their mean.  The machine's speed changes within seconds, so
    these two readings track an interval better than a wider window of them.
    """

    def __init__(self):
        self.probes = [probe()]
        self.intervals: list[float] = []

    def add(self, seconds: float) -> int:
        """Record an interval just measured; returns its index."""
        self.intervals.append(seconds)
        self.probes.append(probe())
        return len(self.intervals) - 1

    def calibrated(self, i: int) -> float:
        """Interval ``i`` in calibrated seconds."""
        speed = (self.probes[i] + self.probes[i + 1]) / 2
        return self.intervals[i] * PROBE_S / speed
