"""Machine-speed calibration of the end-to-end timings.

The benchmark is meant for small shared hosts, whose speed can change
twofold within seconds as other tenants load them; no statistic over one
run removes that.  So a fixed reference kernel, benchmark code that the
program under test never runs, is timed at the boundaries of every timed
segment.  Each segment's wall time is scaled by the kernel's nominal time
over the mean of the two kernel times that bracket it.  A scaled time is
what the segment would have taken on a machine where the kernel runs at its
nominal time.  A change to the program moves the wall time and leaves the
kernel alone, so it moves the scaled time by the same share.

Operations that run for seconds (grid20's trajectories, the sweep) are
split into segments at the entry of the calls their workload names in
``clock_hooks``, at most every ``MIN_SEGMENT_S``; kernel time inside an
operation is not counted in it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# A sample is the faster of two back-to-back kernel runs, which drops a
# sample hit by a stray interrupt.
KERNEL_RUNS = 2
MIN_SEGMENT_S = 0.1
# A sample this recent (the end of the previous operation) also starts the next.
FRESH_S = 0.01


@functools.cache
def _arrays():
    """The kernel's inputs, made on first use: a setup probe imports this
    module but never runs the kernel."""
    stream = np.linspace(0.0, 1.0, 1_000_000)
    # The stream arrays are larger than a core's L2 cache, so streaming them
    # is bound by memory bandwidth.
    return np.array([0.3, -0.2, 0.7]), np.linspace(0.01, 50.0, 80_000), stream, np.empty_like(stream)


def _small():
    """numpy calls on 3-element arrays: interpreter and dispatch overhead."""
    x = a = _arrays()[0]
    for _ in range(100):
        d = a[:, None] - a[None, :]
        a = x + 1e-3 * np.exp(-(d * d + 1.0)).sum(axis=1)
    return a


def _cached():
    """Transcendental ufuncs on an array that fits in cache."""
    x = _arrays()[1]
    return np.exp(-x) * np.log(x) + x


def _stream():
    """Arithmetic streamed over an array that does not fit in cache."""
    _, _, x, out = _arrays()
    np.multiply(x, 1.5, out=out)
    return np.add(out, x, out=out)


# Kernel parts, each with about its median time on the machine the benchmark
# was written on (2 shared vCPUs of an Intel Xeon, Python 3.11, numpy 2.4).
# A workload's kernel is the parts whose work is like its own.
PARTS = {
    "small": (_small, 0.7e-3),
    "cached": (_cached, 0.3e-3),
    "stream": (_stream, 1.4e-3),
}


class SpeedClock:
    """Times operations in wall seconds and in seconds scaled to the nominal
    time of the kernel made of the named ``parts``."""

    def __init__(self, parts):
        self._parts = [PARTS[name][0] for name in parts]
        self.nominal_s = sum(PARTS[name][1] for name in parts)
        self.kernel_s = []
        self._sampled_at = 0.0
        self._ref = self.sample()
        self._t = perf_counter()
        self.wall = self.scaled = 0.0

    def sample(self):
        """Time the kernel now; return its seconds."""
        best = float("inf")
        for _ in range(KERNEL_RUNS):
            t0 = perf_counter()
            for part in self._parts:
                part()
            best = min(best, perf_counter() - t0)
        self.kernel_s.append(best)
        self._sampled_at = perf_counter()
        return best

    def scale(self, wall, kernel_before, kernel_after):
        """Wall seconds scaled by the kernel times that bracket them."""
        return wall * 2.0 * self.nominal_s / (kernel_before + kernel_after)

    def _lap(self):
        wall = perf_counter() - self._t
        ref = self.sample()
        self.wall += wall
        self.scaled += self.scale(wall, self._ref, ref)
        self._ref = ref
        self._t = perf_counter()

    def start(self):
        """Begin an operation, at a fresh kernel sample."""
        if perf_counter() - self._sampled_at > FRESH_S:
            self._ref = self.sample()
        self.wall = self.scaled = 0.0
        self._t = perf_counter()

    def boundary(self):
        """Close a segment inside an operation, if it is long enough."""
        if perf_counter() - self._t >= MIN_SEGMENT_S:
            self._lap()

    def stop(self):
        """End an operation; return its (wall, scaled) seconds."""
        self._lap()
        return self.wall, self.scaled

    @contextmanager
    def hooked(self, targets):
        """Call ``boundary`` at the entry of each target; restore them on exit."""
        saved = []
        try:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn):
        boundary = self.boundary

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            boundary()
            return fn(*args, **kwargs)

        return wrapper
