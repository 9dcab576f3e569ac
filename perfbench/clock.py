"""Operation times in reference-speed seconds.

The speed of the host that runs the benchmark drifts: the same Python work
can take 1.5 times as long for several seconds at a time.  A fixed kernel of
exact rational and dictionary arithmetic, the kind of work facdisp does, is
timed before and after every stretch of about CAL_EVERY_S seconds of measured
work.  Each raw time is multiplied by REF_KERNEL_S over the mean kernel time
around it, which gives the time the work would have taken with the kernel
running at REF_KERNEL_S.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.9e-3  # the kernel's median time on a quiet 2-vCPU host, Python 3.11
CAL_REPS = 5
CAL_EVERY_S = 0.1


def _kernel() -> dict:
    acc, table = Fraction(0), {}
    for i in range(1, 170):
        acc += Fraction(i % 7 - 3, i)
        key = (i % 5, i % 3)
        table[key] = table.get(key, Fraction(0)) + acc
    return table


def kernel_time() -> float:
    """Median kernel time, with the cyclic garbage collector paused so that the
    kernel's time does not depend on how many objects the program holds."""
    times = []
    gc.disable()
    try:
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Clock:
    def __init__(self):
        self.kernel = kernel_time()
        self.kernels = [self.kernel]

    def recalibrate(self) -> float:
        """Time the kernel again; returns the scale for work done since the last call."""
        before, self.kernel = self.kernel, kernel_time()
        self.kernels.append(self.kernel)
        return REF_KERNEL_S / ((before + self.kernel) / 2)

    def overall_scale(self) -> float:
        """One scale for everything measured so far: REF_KERNEL_S over the median kernel time."""
        return REF_KERNEL_S / statistics.median(self.kernels)

    def measure(self, fn, *args):
        """(fn(*args), its time in reference-speed seconds)."""
        self.recalibrate()
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        return result, raw * self.recalibrate()
