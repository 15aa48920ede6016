"""Host speed: a short fixed kernel timed between operations.

On a shared host the CPU speed can drift by up to 2x over minutes, alike for
all work, and it flips between a fast and a slow state within a second, which
swamps run-to-run comparisons of wall times.  A run therefore times this
kernel between its operations (or CLI processes), at most once per
``MIN_GAP_S``, and scales each operation's time by ``KERNEL_REF_S`` over the
median of the ``LOCAL_SAMPLES`` kernel times taken nearest to it
(``local_factor``): the result reads in seconds at the speed the host had
when ``KERNEL_REF_S`` was set.  Many short samples follow the host's state;
a few long ones would not.  Set-up time is not scaled: the time of a fresh
process that imports meanlab varies by about 15% from one process to the
next with no relation to this kernel (nor to the time of a fresh process
that imports numpy and scipy), so scaling it only adds noise.  The kernel is benchmark code only, so a
change to meanlab cannot move it, and it mixes the two kinds of work meanlab
does: interpreted Python with ``math`` calls, and small numpy/scipy.special
array calls.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import special

KERNEL_REF_S = 0.004  # mean kernel time on a 2-vCPU Intel Xeon VM
MIN_GAP_S = 0.05      # at most one kernel pass per this much work
LOCAL_SAMPLES = 6     # kernel times around an operation that scale it


def kernel_s() -> float:
    """Wall time of one pass of the kernel (about KERNEL_REF_S)."""
    t0 = time.perf_counter()
    total, table = 0.0, {}
    for i in range(1, 6_000):
        total += math.log1p(i * 1e-3) * math.atan(i)
        table[i & 255] = total
    a = np.arange(1.0, 200.0)
    for i in range(30):
        total += float(np.sum(special.zeta(2.5, a + i) * np.sqrt(a)))
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel times sampled through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at the start of each sample
        self._last = -math.inf

    def sample(self) -> None:
        self.stamps.append(time.perf_counter())
        self.samples.append(kernel_s())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample unless the last sample is less than MIN_GAP_S old."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.sample()

    def typical(self) -> float:
        """Mean of the middle 80% of the kernel times."""
        xs = sorted(self.samples)
        cut = len(xs) // 10
        return statistics.fmean(xs[cut:len(xs) - cut])

    def local_factor(self, t: float) -> float:
        """Multiply a time taken at ``t`` by this to express it at the
        reference speed: from the LOCAL_SAMPLES samples nearest to ``t``
        (half before it, half after, where the run has them)."""
        i = bisect.bisect(self.stamps, t)
        lo = max(0, min(i - LOCAL_SAMPLES // 2, len(self.samples) - LOCAL_SAMPLES))
        return KERNEL_REF_S / statistics.median(self.samples[lo:lo + LOCAL_SAMPLES])
