"""Machine-speed calibration for a shared host.

    python3 perfbench/calibration.py     # answers each "wall" or "cpu" line with kernel seconds

The benchmark was defined on a 2-vCPU virtual machine whose speed moved
by up to 2.3x within minutes, and differed between its two cores, as
other tenants loaded the host; wall and CPU time moved together.  The
child starts this module as a process of its own and has the kernel
timed alongside its calls; each call's time is then reported in
reference seconds,

    reference seconds = measured seconds * reference / kernel seconds.

* On a workload whose calls run on one thread, the child pins itself to
  one core, which this process inherits, and has the kernel timed before
  the first call and after every call.  The kernel seconds are the mean
  of the samples either side of the call; the reference is REFERENCE_S.
* The sweep's single call keeps both cores busy with its thread pool, so
  the kernel is timed beside it, at its start and then every second; the
  kernel seconds are the mean of those samples, and the reference is
  REFERENCE_BESIDE_POOL_S.  There the kernel's own CPU time is taken, so
  time it spends waiting for a core the pool holds does not count.  In
  two trials of 8 sweep passes, the spread of scaled pass times was 3%
  and 10% on CPU time, 7% and 9% on wall time, against 10% and 20%
  unscaled.  The samples take about 5% of one core.

A slow stretch of the host cancels; a change to hypervol leaves the
kernel alone.  Running the kernel in its own process keeps its buffers
out of the child's peak memory and its allocations out of the child's
heap.

The kernel mixes what hypervol's hot path does: broadcast arithmetic and
weighted row sums on a (rows x nodes) grid, as in barycentric
interpolation, fresh pages touched once, as numpy temporaries are, and
an interpreter loop.  It calls no BLAS routine.
"""

from __future__ import annotations

import math
import mmap
import statistics
import sys
import time

import numpy as np

# kernel seconds on the reference machine in a quiet minute (2 vCPU VM,
# Python 3.11.7, numpy 2.4.6, OpenBLAS on 1 thread): alone on its core,
# between calls; and beside the sweep's pool, which keeps both cores busy
REFERENCE_S = 0.0025
REFERENCE_BESIDE_POOL_S = 0.003     # CPU seconds
CLOCKS = {"wall": time.perf_counter, "cpu": time.thread_time}

ROWS, NODES = 1000, 201
FAULT_BYTES = 1 << 21
PAGE = mmap.PAGESIZE
LOOP = 4000
REPEATS = 9


class Calibration:
    """Times the fixed kernel; `seconds()` is the median of REPEATS runs."""

    def __init__(self):
        rng = np.random.default_rng(1601_03939)
        self.points = rng.uniform(-1.0, 1.0, ROWS)
        self.nodes = np.cos(np.arange(NODES) * math.pi / (NODES - 1))
        self.values = rng.random(NODES)
        self.weights = np.where(np.arange(NODES) % 2, -1.0, 1.0)
        self.weights[[0, -1]] *= 0.5
        self.grid = np.empty((ROWS, NODES))
        self.out = np.empty(ROWS)
        self.norm = np.empty(ROWS)

    def kernel(self) -> float:
        np.subtract(self.points[:, None], self.nodes[None, :], out=self.grid)
        np.divide(self.weights, self.grid, out=self.grid)
        np.sum(self.grid, axis=1, out=self.norm)
        np.multiply(self.grid, self.values, out=self.grid)
        np.sum(self.grid, axis=1, out=self.out)
        np.divide(self.out, self.norm, out=self.out)
        with mmap.mmap(-1, FAULT_BYTES) as fresh:
            pages = np.frombuffer(fresh, dtype=np.uint8)
            pages[::PAGE] = 1
            del pages
        total = 0.0
        for k in range(LOOP):
            total += math.sqrt(k)
        return total + float(self.out[0])

    def seconds(self, clock=time.perf_counter) -> float:
        times = []
        for _ in range(REPEATS):
            start = clock()
            self.kernel()
            times.append(clock() - start)
        return statistics.median(times)


def serve(stdin, stdout) -> None:
    """Answer each line read from ``stdin``, "wall" or "cpu", with
    `Calibration.seconds` on that clock, until EOF."""
    calibration = Calibration()
    for line in stdin:
        stdout.write(f"{calibration.seconds(CLOCKS[line.strip()])!r}\n")
        stdout.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
