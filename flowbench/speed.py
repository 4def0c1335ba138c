"""Host speed probe: scale measured seconds to a reference host speed.

The hosts this benchmark runs on share their cores with other tenants.
The same job can take 1.6 times as long in one minute as in the next,
and all pure-Python work in the process slows alike; a slow spell can
outlast a whole run, so no median within a run removes it.  A fixed
probe, independent of the program, is timed before and after every
job; the job's seconds are scaled by ``REFERENCE_S`` over the probe's
time around it.  A change to the program moves the scaled seconds as
much as the raw ones, a change in host speed moves them far less.

The probe mixes object work (slotted instances, method calls, tuple
keys, a dict, a sort) with integer arithmetic.  Over 166 jobs of four
workload shapes timed through slow and fast spells, the log of a job's
seconds followed the log of this probe with slope 1.01 and correlation
0.88; object work alone gave slope 0.83, arithmetic alone 1.19.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

#: probe seconds on the reference 2-core container at its usual speed
REFERENCE_S = 0.0045


class _Point:
    __slots__ = ("x", "y", "twin")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y
        self.twin = None

    def key(self):
        return (self.x, self.y)


def _objects() -> int:
    points = [_Point(i % 97, i % 89) for i in range(3000)]
    seen = {}
    for point in points:
        key = point.key()
        if key in seen:
            point.twin = seen[key]
        else:
            seen[key] = point
    points.sort(key=_Point.key)
    return sum(1 for point in points if point.twin is not None)


def _integers() -> int:
    total = 0
    for i in range(60000):
        total = (total * 31 + i) & 0xFFFF
    return total


def _timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of the probe now: geometric mean of its two kernels' medians of 3."""
    objects = statistics.median(_timed(_objects) for _ in range(3))
    integers = statistics.median(_timed(_integers) for _ in range(3))
    return (objects * integers) ** 0.5


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two probes to reference seconds."""
    return REFERENCE_S / ((before * after) ** 0.5)


@contextlib.contextmanager
def pinned():
    """Keep this process and the children it starts on one CPU.

    A child then runs where the probes around it ran.  A host that
    refuses the affinity change runs unpinned.
    """
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
