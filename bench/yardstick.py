"""A fixed piece of interpreter work that measures how fast the CPU is right now.

The machine the bounds were set on is shared.  Other tenants slow it down by
up to 60%, for stretches from a few seconds to over a minute, and the two
cores slow down independently.  So a wall time alone says as much about the
neighbours as about confcalc.  While ops run, a :class:`Sampler` times this
loop every few milliseconds, and the runner scales each op's time by
``REFERENCE_S / measured``: the op's time at the speed at which the loop
takes ``REFERENCE_S``.

Do not change the loop or ``REFERENCE_S``: together they define the
reference speed, and a change makes earlier results incomparable.  The loop
does what confcalc's per-point work does: Python calls around numpy
operations on tiny arrays.  A loop of pure Python tracked confcalc's
slowdowns about four times less closely.
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np

# The loop's time on an unloaded core of the machine the bounds in
# BENCHMARK.json were set on: 2 CPUs of an Intel Xeon at 2.1 GHz.
REFERENCE_S = 40e-6
INTERVAL_S = 0.02
_X = np.arange(3.0)


def _step(x, k):
    return x * 0.999 + k


def _loop():
    acc = 0.0
    for i in range(10):
        v = np.asarray(_X * 0.5 + i)
        acc = _step(acc, float(np.max(np.abs(v))))
    return acc


def sample() -> float:
    """Seconds for one loop: the fastest of three back-to-back runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Samples the loop every INTERVAL_S of wall time while installed.

    The samples run from a SIGALRM handler, so they land inside long ops
    too; the handler runs between bytecodes of the main thread.  Their own
    time is taken out of any op they interrupt.  Samples are also taken on
    entry and exit, so every op has a sample on each side.
    """

    def __init__(self):
        self.starts = []  # perf_counter when each sample began
        self.loops = []   # the loop's time in that sample
        self.spent = []   # the sample's whole cost, handler included
        self._previous = None

    def _take(self, *_signal_args):
        start = time.perf_counter()
        loop = sample()
        self.starts.append(start)
        self.loops.append(loop)
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def op_time(self, start, end):
        """(seconds, seconds at reference speed) of an op that ran in [start, end].

        Samples that ran inside the op are subtracted from it; the speed
        is the mean over those samples and the nearest one on each side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - math.fsum(self.spent[lo:hi])
        speed = statistics.fmean(self.loops[max(lo - 1, 0):hi + 1])
        return busy, busy * REFERENCE_S / speed
