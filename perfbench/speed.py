"""Machine-speed reference for normalizing times on a shared machine.

On a machine shared with other tenants the speed of one core drifts by
30 % or more for tens of seconds at a time, and process time drifts with
wall time, so raw times of one run say as much about the neighbours as
about the program.  `SpeedRef` times a fixed pure-Python kernel (owned by
the benchmark, never by the program) every CAL_EVERY seconds between ops.
A time measured over [t0, t1] is then scaled by REFERENCE_KERNEL_S over the
median kernel time within WINDOW seconds of that interval: it reads as the
time the op would have taken at the reference speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Median kernel time on the machine the benchmark was tuned on (2 vCPUs,
# x86-64, CPython 3.11); it only sets the scale of normalized times.
REFERENCE_KERNEL_S = 0.006
CAL_EVERY = 0.25
WINDOW = 1.0


def kernel() -> int:
    """Fixed interpreter work: dict traffic, calls, a sort.  It holds only
    ints, so it leaves the cyclic collector's counts almost untouched."""
    table = {}
    acc = 0
    for i in range(15000):
        table[(i * 7919) & 1023] = i
        acc += table.get((i * 31) & 1023, 0)
    order = sorted(range(10000), key=lambda x: (x * 2654435761) & 0xFFFF)
    return acc + order[0]


class SpeedRef:
    def __init__(self):
        self.times: list[float] = []  # midpoints, ascending
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the kernel
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time the kernel if CAL_EVERY seconds have passed since the last
        sample (or when forced)."""
        t0 = perf_counter()
        if not force and t0 - self._last < CAL_EVERY:
            return
        # A collection of the program's garbage must not land in the kernel.
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            t1 = perf_counter()
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured over [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        near = self.durations[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            near = [self.durations[i]]
        return REFERENCE_KERNEL_S / statistics.median(near)

    def summary(self) -> dict:
        return {"samples": len(self.durations),
                "kernel_s.p50": statistics.median(self.durations),
                "kernel_s.min": min(self.durations),
                "kernel_s.max": max(self.durations)}
