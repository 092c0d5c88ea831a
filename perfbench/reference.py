"""Reference kernel: a fixed computation that gauges how fast the host runs now.

The benchmark shares its machine with other work, which slows every
computation by a factor that drifts over seconds to minutes.  Timing this
kernel before and after each op measures that factor, and scaling the op's
wall time by it gives a time that follows the program rather than the host.
The kernel mixes the kinds of work fcir does (FFTs, a recursion over small
arrays, scalar interpreter code) and never calls fcir, so it is the same on
every commit.

The scale is (REFERENCE_S / kernel time) ** exponent, with one exponent per
workload.  Work on arrays far larger than the caches, as in `converge`, slows
by less than the kernel when the host slows: on a 2-core Xeon VM its time went
as the kernel's to the power 0.6 to 0.8, and with 0.7 its spread over ten runs
fell from 0.06 and 0.15 to 0.04 and 0.05 on two sets of runs.  The other
workloads spread least with 1.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal kernel time.  A normalised time reads as seconds on a host that runs
# the kernel in this long (about what a 2-core Xeon VM takes).
REFERENCE_S = 0.05

_NOISE = np.random.default_rng(0).standard_normal((64, 2048))


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel (a few MB of memory at most)."""
    start = time.perf_counter()
    for _ in range(4):
        levels = np.empty((len(_NOISE), 1024))
        for row, noise in zip(levels, _NOISE):
            row[:] = np.cumsum(np.fft.fft(noise).real[:1024])
        level = np.ones(len(levels))
        for n in range(1024):
            a = level + 0.25 * levels[:, n]
            level = (a + np.sqrt(a * a + 1.0)) / 2.5
        total = 0.0
        for i in range(40_000):
            total += math.sqrt(i)
    return time.perf_counter() - start
