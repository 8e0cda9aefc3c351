"""The machine's speed over a run, and operation times rescaled to a fixed speed.

The 2-vCPU VM this benchmark was tuned on runs every process up to 1.5x
slower for stretches of 5 to 60 seconds, at random; CPU time tracks wall
time, so it is not steal time.  A run lasts about as long as one stretch, so
averaging inside a run cannot even it out: raw timings of identical runs
differ by a quarter.  Instead the benchmark times ``probe_work`` outside the
timed region, at most every ``EVERY`` seconds, and rescales each operation's
time by ``REFERENCE_S`` over the median probe within ``HALF_WINDOW`` seconds
of the operation.  A scaled time is what the operation would take at the
speed at which the probe takes ``REFERENCE_S``.  The probe never runs the
program, so a program that does more work reads slower whatever the
machine's state.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

EVERY = 0.1  # seconds between probes, at least; a probe takes about 1.3 ms
HALF_WINDOW = 0.5  # seconds on either side of an operation whose probes count
# The probe's duration on the 2-vCPU Xeon VM described in README.md when it
# runs at full speed; the scale of every reported time.
REFERENCE_S = 1.0e-3

_A = np.random.default_rng(0).random((64, 64))
_B = np.random.default_rng(1).random((64, 256))


def probe_work() -> None:
    """A fixed mix of the work the program does: interpreter arithmetic,
    dict and tuple allocation, and small matrix products."""
    total = 0
    for i in range(5000):
        total += i * i
    table = {str(i): (i, [i]) for i in range(500)}
    sorted(table.items(), key=lambda kv: -kv[1][0])
    for _ in range(6):
        (_A @ _B).sum()


class Speed:
    """Probe times over a run, and the scale factor they give an operation."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def probe(self, force: bool = False) -> None:
        start = perf_counter()
        if not force and start - self._last < EVERY:
            return
        probe_work()
        self._last = perf_counter()
        self.starts.append(start)
        self.seconds.append(self._last - start)

    def factor(self, start: float, elapsed: float) -> float:
        """REFERENCE_S over the median probe around [start, start + elapsed]."""
        lo = bisect_left(self.starts, start - HALF_WINDOW)
        hi = bisect_right(self.starts, start + elapsed + HALF_WINDOW)
        near = self.seconds[lo:hi] or [self.seconds[min(lo, len(self.seconds) - 1)]]
        return REFERENCE_S / statistics.median(near)
