"""Machine-speed correction for timings.

The machine the benchmark runs on is shared: on the 2-vCPU Intel Xeon VM the
benchmark was defined on, the same simulations ran 1.6 times as fast in one
run as in another a few minutes apart, far more than the differences the
benchmark has to resolve. A fixed reference routine, a mix of the
simulator's kinds of work, runs after each timed section for a tenth of its
length, and timings are scaled by how fast the reference ran:
``corrected = measured * REFERENCE_S / mean reference time``. Round by round
the reference tracked the city workload with correlation 0.95, and
correcting cut the quartile spread of competition throughput over five
seeds from 0.36 to 0.15.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

# One reference() call at the defining machine's fastest; sets the scale of
# corrected seconds.
REFERENCE_S = 0.006
_OVERHEAD = 0.1  # reference time spent per second timed

_rng = np.random.default_rng(0)
_ARR = _rng.random((20, 150))
_VEC = _rng.random(150)
_ROWS = _rng.random((50, 5000))
_ROW = _rng.random(5000)
_IDX = _rng.integers(0, 5000, 5000)


def reference() -> None:
    """A fixed mix of the simulator's kinds of work, about 6 ms."""
    heap, counts = [], {}
    for i in range(2000):  # event queue and bookkeeping
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 331] = counts.get(i % 331, 0) + i
    while heap:
        heapq.heappop(heap)
    total = 0.0
    for i in range(1500):  # scalar haversine
        total += math.asin(min(1.0, math.sqrt(math.sin(i * 0.001) ** 2 * 0.5)))
    for _ in range(200):  # scalar draws, as in trace synthesis
        float(_rng.exponential(2.0))
    for _ in range(60):  # hindsight-sized reductions
        (_ARR + _VEC).min(axis=1).mean()
    for row in _ROWS:  # city-sized gathers
        (row[_IDX] + _ROW).argmin()


class SpeedClock:
    """Runs the reference after each timed section, for a tenth of the section's length."""

    def __init__(self) -> None:
        self.reference_s = 0.0
        self.calls = 0

    def probe(self, after_s: float) -> None:
        spent = 0.0
        while True:  # at least one call
            start = time.perf_counter()
            reference()
            spent += time.perf_counter() - start
            self.calls += 1
            if spent >= _OVERHEAD * after_s:
                break
        self.reference_s += spent

    def scale(self) -> float:
        """Factor that turns measured seconds into corrected seconds."""
        return REFERENCE_S * self.calls / self.reference_s
