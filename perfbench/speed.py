"""Machine-speed reference kernel: timings reported at a fixed machine speed.

The shared 2-CPU virtual machine the benchmark was written on changes speed
by itself: fits ran up to 1.5 times slower for tens of seconds at a time,
and two sets of ten runs of unchanged code, taken minutes apart, gave
`surrogate_s` medians 25% apart. Such a drift moves the timings of the
process alike, so the benchmark times this kernel right before and right
after each operation and reports the operation's times at the kernel's
reference speed::

    reported = measured * REF_WALL_S / fast_time(kernel wall times around it)

(CPU times likewise with REF_CPU_S), where fast_time() is the mean of the
faster half of the kernel times: interruptions only ever slow a kernel run
down, so its fastest runs show the machine's speed best. The kernel uses
no hdmrfit code, so a change to the library moves the measured times and
not the scale. It runs
the kinds of work a fit does (batched projections of tall designs, products
of univariate columns, mid-size and many small least-squares solves, and an
interpreter loop) with the same BLAS threads. The measured times and the
kernel times are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel wall and CPU seconds in a quiet period of the 2-CPU Xeon virtual
# machine (2.1 GHz, OpenBLAS with 2 threads) the baseline was measured on
REF_WALL_S = 0.045
REF_CPU_S = 0.088


class Kernel:
    """The reference kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20130228)
        self.designs = rng.standard_normal((96, 560, 24))  # designs of a scanned class
        self.rv = rng.standard_normal((560, 2))            # residual and direction
        self.table = rng.uniform(-1.0, 1.0, (560, 10, 8))  # univariate table
        self.psi = rng.standard_normal((560, 48))          # dense-mode design
        self.r = rng.standard_normal(560)
        self.small = [rng.standard_normal((40, 8)) for _ in range(150)]

    def run(self) -> tuple[float, float]:
        """Run the kernel once; return its (wall, CPU) seconds."""
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(4):
            np.matmul(self.designs.transpose(0, 2, 1), self.rv)
        for i in range(20):
            a, b = self.table[:, i % 10, :], self.table[:, (i + 1) % 10, :]
            (a[:, :, None] * b[:, None, :]).reshape(560, -1)
        for _ in range(16):
            np.linalg.lstsq(self.psi, self.r, rcond=None)
        for a in self.small:
            np.linalg.lstsq(a, a[:, 0], rcond=None)
        acc = 0
        for i in range(60000):
            acc += i * i
        return time.perf_counter() - t0, time.process_time() - c0

    def sample(self, n: int) -> list[tuple[float, float]]:
        return [self.run() for _ in range(n)]


def _fast_time(times) -> float:
    return statistics.fmean(sorted(times)[: max(1, len(times) // 2)])


def wall_scale(samples) -> float:
    """Factor that takes wall times measured next to the kernel ``samples``
    to the reference speed."""
    return REF_WALL_S / _fast_time([w for w, _ in samples])


def cpu_scale(samples) -> float:
    """The same for CPU times."""
    return REF_CPU_S / _fast_time([c for _, c in samples])
