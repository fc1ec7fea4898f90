"""Host-speed sampling.

The host this benchmark was defined on (a shared 2-vCPU virtual machine)
slows down and speeds up by tens of percent within minutes, and every op
slows with it.  A fixed kernel of small numpy calls and Python arithmetic,
which uses nothing from the package, slows by the same factor.  While a
Sampler runs, SIGALRM runs a short chunk of that kernel every PERIOD_S
seconds, in the middle of whatever op is running.  An op's time at the
reference host speed is then

    (op seconds - chunk seconds spent inside it) * CHUNK_REF_S / mean chunk seconds

with the mean over the chunks that ran from PAD_S before the op to PAD_S
after it.  Averaging over a few seconds, rather than over the op alone,
gave the steadiest run medians on that host.
"""

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD_S = 0.04
PAD_S = 2.0             # an op's host speed is averaged over the op +- PAD_S
CHUNK_ITERS = 150
# median chunk time on the host the benchmark was defined on
CHUNK_REF_S = 0.00146


def _kernel(M: np.ndarray, v: np.ndarray, iters: int) -> float:
    acc, last = 0.0, {}
    for i in range(iters):
        v = M @ v * 0.999
        b = np.clip(v, -0.25, 0.25)
        acc += float(np.sqrt(b @ b))
        last[i % 7] = acc
    return acc


class Sampler:
    """Times one kernel chunk every PERIOD_S seconds while running."""

    def __init__(self):
        self._M = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]])
        self._v0 = np.array([0.3, -0.2, 0.1])
        self.ends: list[float] = []
        self.costs: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _kernel(self._M, self._v0, CHUNK_ITERS)
        t1 = perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the chunks that ended in [t0, t1] took."""
        return sum(self.costs[bisect.bisect_left(self.ends, t0):bisect.bisect_right(self.ends, t1)])

    def chunk_s(self, t0: float, t1: float) -> float:
        """Mean chunk seconds from PAD_S before t0 to PAD_S after t1."""
        i0 = bisect.bisect_left(self.ends, t0 - PAD_S)
        i1 = bisect.bisect_right(self.ends, t1 + PAD_S)
        if i1 <= i0:  # no chunk in the window: the nearest on each side
            i0, i1 = max(i0 - 1, 0), i0 + 1
        near = self.costs[i0:i1]
        return sum(near) / len(near)
