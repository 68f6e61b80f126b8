"""Wall times scaled to a reference speed of the machine.

On a shared machine the speed drifts by tens of percent within seconds, so
a raw median moves between runs of the same code by more than any useful
bound.  While rounds run, an interval timer interrupts the caller every
``INTERVAL_S`` and times a fixed reference kernel (float, complex and math
calls, string formatting, list and dict work, like the scalar code kerrcav
spends its time in).  Each timed
operation's wall time, less the time the kernel took inside it, is
multiplied by ``NOMINAL_S`` over the mean kernel time of the samples during
the operation and the one on each side.  The result stays in seconds: the
time the operation would take while the kernel runs in ``NOMINAL_S``.  The
kernel is the benchmark's own code and never changes with kerrcav.
"""

import bisect
import cmath
import contextlib
import math
import signal
import time

# Duration of one kernel run the scaled times refer to: about its median
# on an idle 2-core 2.1 GHz Xeon machine.
NOMINAL_S = 0.8e-3
INTERVAL_S = 0.1


def kernel():
    acc = 0.0
    z = 0j
    out = []
    seen = {}
    for i in range(1300):
        x = 1.0 + i * 1e-3
        z = cmath.exp(1j * x) * (x + 0.5j) + z * 0.5
        acc += math.sqrt(x) * abs(z)
        seen[i & 63] = acc
        if i % 4 == 0:
            out.append(f"{acc:.16e}")
    return len(out) + len(seen)


class RefClock:
    """Timeline of reference samples and the time they took."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.spent = 0.0

    def sample(self, *_):
        """Time the kernel (best of three runs) and log the sample."""
        start = time.perf_counter()
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(start)
        self.durations.append(best)
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S of wall time inside the block."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scale(self, start, end):
        """NOMINAL_S over the mean kernel time from the last sample before
        ``start`` to the first one after ``end``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        window = self.durations[lo:hi + 1]
        return NOMINAL_S * len(window) / math.fsum(window)
