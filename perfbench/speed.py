"""Host-speed calibration for the benchmark's call timings.

The 2-vCPU machine this benchmark was built on switches between a fast
and a slow state for seconds to minutes at a time. How much slower the
slow state is depends on the code: ~1.96x for interpreter-bound loops,
~1.56x for numpy on 1e5 doubles, close to 1x for the mixture workload's
large vector kernels. Raw run-to-run spreads of identical work reach
10-30%.

A fixed loop that shares no code with fracheat is timed between calls.
Half of it is interpreter-bound: QUADPACK driving a Python callback. The
other half is vector-bound: numpy on 1e5 doubles. Each call's time is
multiplied by (reference loop time / loop time measured around the call)
** SENSITIVITY. The factor depends only on the host's state, never on
the code under test, so two programs measured in the same state compare
exactly as their raw times do.

SENSITIVITY = 1 would fully correct code that slows like the loop, and
it would over-correct the mixture. SENSITIVITY = 0 is raw time. On two
sets of ten runs per workload on the reference machine, the largest
spread of items_per_s, point_p50_ms or point_p90_ms over the four
workloads was 0.31 raw, 0.22 at 1, 0.215 at 0.5 and 0.17 at 0.7.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import integrate

REFERENCE_S = 0.0082   # one loop in the fast state of the reference machine
SENSITIVITY = 0.7
EVERY_S = 0.25         # at most this much call time between two samples

_SMALL = np.linspace(0.01, 1.0, 64)
_LARGE = np.random.default_rng(0).uniform(size=100_000)


def _integrand(u):
    return float(np.dot(np.exp(-u * _SMALL), _SMALL)) / (1.0 + u * u)


def calibration_loop():
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    for k in range(12):
        integrate.quad(_integrand, 0.0, 40.0 + k, epsabs=0.0, epsrel=1e-12, limit=200)
    for k in range(3):
        v = np.exp(-(k + 1.0) * _LARGE)
        v.sort()
    return time.perf_counter() - start


class Speedometer:
    """Calibration samples taken between calls, and the scale they imply."""

    def __init__(self):
        calibration_loop()   # the first call pays for lazy set-up
        self.starts = []
        self.loops = []

    def sample(self):
        self.starts.append(time.perf_counter())
        self.loops.append(calibration_loop())

    def sample_if_due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Time factor for a call that ran from `start` to `end`, from the
        mean of the last sample before it and the first one after it."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        loop = statistics.mean(self.loops[max(before, 0):after + 1])
        return (REFERENCE_S / loop) ** SENSITIVITY
