"""Host-speed sampling, so that times measured minutes apart on a shared
host can be compared.

On a virtual machine whose physical cores are shared with other tenants,
the same code runs at one of two speeds: ``kernel`` below takes either
about 1.0 ms or about 1.7 ms, switching every few tens of milliseconds,
and the share of time spent in the slow state drifts between a tenth and
nine tenths over minutes.  Wall time and CPU time both carry that drift,
and no hardware counters are exposed to count instructions instead.

``HostSpeed.region`` times a block of code while a ``SIGALRM`` handler runs
a fixed calibration kernel of about 1 ms every 50 ms in this same thread,
so the kernel samples the host's speed at even intervals over exactly the
time the block runs.  The handler's own time is taken out of the block's
time.  ``scale`` turns a region's samples into the factor that converts its
time into reference seconds: the time the block would have taken had every
kernel run taken ``KERNEL_REF_S``, the kernel's time on an uncontended core
of the reference host (README.md).  Work done at speed 1/c over dt is
dt/c, so the factor is the mean of KERNEL_REF_S / c over the samples.

The program's operations slow by 1.6 to 1.75 times on a contended core and
the kernel by about 1.65, so a scaled time still moves by up to about 4 %
between an all-fast and an all-slow run, against 60 % or more unscaled.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

KERNEL_REF_S = 1.0e-3
INTERVAL_S = 0.05
# set-up regions last from 30 ms to 2 s, so they are sampled more densely
SETUP_INTERVAL_S = 0.005

_VECTOR = np.linspace(0.0, 1.0, 64)
_BLOCK = np.linspace(0.0, 1.0, 1 << 18)  # 2 MB, past the per-core caches


def kernel():
    """About 1 ms of the program's kinds of work: a dict-and-tuple Python
    loop, small-array numpy calls and one pass over a 2 MB array, which
    slow by about 1.7, 1.8 and 1.4 times on a contended core."""
    table = {}
    acc = 0.0
    for i in range(3000):
        table[i & 31] = (i, i * 0.5)
        acc += table[i & 31][1]
    v = _VECTOR
    for _ in range(220):
        v = np.abs(v - 0.5) * 1.5
    return acc + float(v[0]) + float(np.multiply(_BLOCK, 1.5).sum())


class Region:
    """One timed block: ``seconds`` is its wall time without the sampler's,
    ``samples`` the kernel times taken while it ran."""

    def __init__(self):
        self.seconds = 0.0
        self.samples = []


class HostSpeed:
    """Times regions; samples the host's speed in them when ``enabled``."""

    def __init__(self, enabled: bool = True, interval: float = INTERVAL_S):
        self.enabled = enabled
        self.interval = interval
        self.current = None
        self.stolen = 0.0
        self.busy = False

    def _tick(self, signum, frame):
        if self.busy or self.current is None:
            return
        self.busy = True
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.current.samples.append(elapsed)
        self.stolen += elapsed
        self.busy = False

    @contextmanager
    def region(self, interval: float = None):
        region = Region()
        if self.enabled:
            previous = signal.signal(signal.SIGALRM, self._tick)
            self.current, self.stolen = region, 0.0
            interval = interval or self.interval
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        start = perf_counter()
        try:
            yield region
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                self.current = None
                signal.signal(signal.SIGALRM, previous)
            region.seconds = perf_counter() - start - self.stolen


def scale(samples) -> float:
    """Reference seconds per measured second over the given kernel times."""
    if not samples:
        raise ValueError("no host-speed samples: the timed region was shorter "
                         "than the sampling interval")
    return float(np.mean(KERNEL_REF_S / np.asarray(samples)))
