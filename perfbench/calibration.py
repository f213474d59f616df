"""Host-speed calibration: rescale measured times to a reference host speed.

On a shared host the same work runs up to 1.8x slower for seconds to
minutes at a time, while other tenants load the physical cores. A fixed
kernel that stresses the same resources as a workload slows down with it.
Over 4-second windows in which raw times moved 1.5-1.8x, the ratio of
workload time to kernel time moved by about +-10 % for the scalar kernel
against operating-point refinement, and by +-5-7 % for the matrix kernels
against the Lindblad right-hand side at n_ph 7 and 14. So the benchmark
samples the kernel during a run and reports every end-to-end time as

    measured seconds x REFERENCE_S[kernel] / kernel seconds nearby,

i.e. seconds at the speed where the kernel takes REFERENCE_S. The kernels
use nothing from resgate, so a change to the program cannot move them.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    g: float
    delta: float
    kappa: float


def _scalar_kernel() -> float:
    """Interpreter-bound: small frozen objects, calls, math/cmath on floats."""
    acc = 0.0
    for i in range(3000):
        p = _Point(g=0.1 + i * 1e-5, delta=2.0, kappa=1e-3)
        q = complex(-p.kappa, p.delta)
        z = (cmath.exp(q * (0.5 + 1e-4 * i)) - 1.0) / q
        acc += math.exp(-abs(z) ** 2 * p.g) + math.hypot(p.delta, p.kappa)
    return acc


def _matrix_kernel(d: int, reps: int):
    """RK4-like batched complex matrix algebra on a (17, d, d) stack."""
    import numpy as np  # here, so that the set-up probe can calibrate without it

    rng = np.random.default_rng(d)
    rho = rng.standard_normal((17, d, d)) + 1j * rng.standard_normal((17, d, d))
    h = rng.standard_normal((d, d)) + 0j
    h = h + h.T

    def kernel() -> float:
        r = rho
        for _ in range(reps):
            k = -1j * (h @ r - r @ h) + 0.5 * (h @ r @ h - r)
            r = 0.5 * (r + 0.01 * k + np.conj(np.swapaxes(r + 0.01 * k, -1, -2)))
        return float(r[0, 0, 0].real)

    return kernel


KERNELS = {"scalar": lambda: _scalar_kernel, "matrix28": lambda: _matrix_kernel(28, 6),
           "matrix56": lambda: _matrix_kernel(56, 2)}
# Kernel seconds on the reference host (2-vCPU Intel Xeon at 2.1 GHz, numpy
# 2.4 with OpenBLAS 0.3.31 on one thread), at its quiet speed.
REFERENCE_S = {"scalar": 0.0042, "matrix28": 0.0024, "matrix56": 0.0071}


class HostSpeed:
    """Samples one kernel through a run; converts intervals to reference seconds."""

    def __init__(self, kernel: str, every_s: float = 1.0):
        self.kernel = KERNELS[kernel]()
        self.kernel()  # the first call pays one-off costs
        self.reference_s = REFERENCE_S[kernel]
        self.every_s = every_s
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.spent_s = 0.0  # time spent sampling, to take out of enclosing timings

    def sample(self, force: bool = False) -> None:
        """Time the kernel (best of three) unless a sample is under every_s old."""
        start = time.perf_counter()
        if not force and self.samples and start - self.samples[-1][0] < self.every_s:
            return
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self.samples.append((end, best))
        self.spent_s += end - start

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]."""
        near = [k for when, k in self.samples
                if t0 - self.every_s <= when <= t1 + self.every_s]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return self.reference_s / statistics.median(near)
