"""A fixed reference computation that tracks the machine's speed.

The benchmark runs on shared virtual machines whose speed changes by up
to 1.6x for seconds to minutes at a time, and process CPU time follows
wall time, so raw timings of two sets of runs of the same code can
differ by more than any useful bound.  The probe is a fixed mix of the
kinds of work the package does: a scalar Python loop, numpy on
2001-point grids (the size of the root scans) and numpy on larger
arrays.  It imports nothing from the package, so a change to the
package cannot change it.

The benchmark samples the probe between operations, outside their
timing, and reports each operation's time scaled by
``NOMINAL_S / (mean probe time around it)``: the time the operation
would take on a machine where the probe takes ``NOMINAL_S``.  The mean,
not the median: the process moves between vCPUs of different speed
within a fraction of a second, so consecutive samples jump between two
levels, and an operation longer than that runs at the average of both.
A program that gets faster or slower moves the scaled time by the same
ratio as the raw one.

Set-up (a fresh interpreter importing the package and making inputs)
tracks the probe poorly: it is mostly interpreter start and ``import
numpy``.  Its reference is therefore a fresh interpreter that imports
numpy alone, timed just before and just after each set-up sample, and
set-up times are scaled to ``NOMINAL_START_S`` for that start.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.005   # the probe's time that scaled figures refer to
NOMINAL_START_S = 0.15  # a fresh interpreter's start with ``import numpy``, for set-up times
WINDOW = 2          # probe samples on each side of an operation's own in its mean


class SpeedProbe:
    """Samples of the reference computation, wall and CPU time."""

    def __init__(self) -> None:
        self._grid = np.linspace(0.0, math.pi, 2001)
        self._big = np.random.default_rng(0).random(50_000)
        self.wall: list = []
        self.cpu: list = []

    def _work(self) -> float:
        acc = 0.0
        for i in range(15_000):
            acc += math.sin(i * 1e-3) * 0.5
        x = self._grid
        for k in range(30):
            v = np.sin(x * (1.0 + k)) + 0.5 * x * np.cos(x)
            acc += np.flatnonzero(v[:-1] * v[1:] <= 0.0).size
        for _ in range(3):
            acc += float(np.sin(self._big).sum())
        return acc

    def sample(self) -> int:
        """Time the computation once; returns the sample's index."""
        c0, t0 = time.process_time(), time.perf_counter()
        self._work()
        t1, c1 = time.perf_counter(), time.process_time()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        return len(self.wall) - 1

    def scale(self, k: int, cpu: bool = False) -> float:
        """``NOMINAL_S`` over the mean of the samples within ``WINDOW`` of sample ``k``."""
        series = self.cpu if cpu else self.wall
        return NOMINAL_S / statistics.fmean(series[max(0, k - WINDOW):k + WINDOW + 1])
