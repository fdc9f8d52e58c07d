"""Host-speed probe: scales timings to a fixed reference speed.

The machines this benchmark runs on are shared, and their speed drifts
by up to 1.8x over seconds, for reasons outside the benchmark process
(a busy second core of our own does not cause it).  Wall times alone
then spread more across runs than any useful regression bound.  So the
benchmark times a small fixed pure-Python kernel (``Fraction`` and
``dict`` work, no csalg code) next to every job, and scales the job's
time by ``REFERENCE_S`` over the kernel time: the result reads as
"seconds on a host where the kernel takes ``REFERENCE_S``".

- In-process jobs: a ``SIGALRM`` timer interrupts the job every
  ``INTERVAL`` seconds and times the kernel (``Probe``); the kernel's
  own time is taken out of the job's time.
- Jobs that wait on a child process, and set-up samples: the parent
  times the kernel just before and just after the child (``spot``) and
  takes the mean.  A probe running while the child runs would slow the
  child: on the 2-core VMs measured, a busy parent slows its child by a
  third or more.

No thread is started: the handler runs in the main thread between
bytecodes.
"""

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

#: Seconds between probes.
INTERVAL = 0.01

#: Kernel time, in seconds, of the reference host (a 2-core Xeon VM
#: under CPython 3.11 in its fast state); scaled figures read "as if on
#: that host".
REFERENCE_S = 200e-6

#: Probes within this many seconds of a job count towards its speed.
WINDOW_S = 0.02


#: A table of about a megabyte, so the kernel also feels cache and memory
#: contention, as the csalg dict-of-Fraction code does.
_TABLE = {i: Fraction(i, 7) for i in range(8192)}
_KEYS = [(k * 97 * 31 + i) % 8192 for i, k in enumerate(range(60))]


def kernel():
    acc = {}
    x = Fraction(1, 3)
    for i, key in enumerate(_KEYS):
        x = _TABLE[key] + x * Fraction(1, 2)
        acc[(key, i & 3)] = x
    return acc


def kernel_time():
    """One warm kernel timing, with the cyclic garbage collector held off.

    The kernel frees all it allocates by reference counting, so holding
    the collector off leaves no work behind.  It keeps a collection of the
    caller's heap, whose cost grows with csalg's live objects, out of the
    kernel time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def spot(repeats=5):
    """Median of a few warm kernel timings, for work done outside ``Probe``."""
    times = sorted(kernel_time() for _ in range(repeats))
    return times[len(times) // 2]


class Probe:
    """Collects (time, kernel seconds, handler seconds) while running."""

    def __init__(self):
        self.stamps = []
        self.kernel_s = []
        self.handler_s = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        k = kernel_time()
        self.stamps.append(t0)
        self.kernel_s.append(k)
        self.handler_s.append(perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _range(self, lo, hi):
        return (bisect.bisect_left(self.stamps, lo),
                bisect.bisect_right(self.stamps, hi))

    def overhead(self, t0, t1):
        """Seconds the handler took inside [t0, t1]."""
        i, j = self._range(t0, t1)
        return sum(self.handler_s[i:j])

    def speed(self, t0, t1):
        """Mean kernel time around [t0, t1]; None if no probe landed.

        The mean, not the median: a job's time is the sum of its slices,
        so it slows by the mean of the kernel times across it.  On a
        one-second centroid job on a 2-core Xeon VM, job time over the
        mean probe varied half as much (4% against 9%) as over the median.
        """
        i, j = self._range(t0 - WINDOW_S, t1 + WINDOW_S)
        if i == j:
            return None
        return sum(self.kernel_s[i:j]) / (j - i)

    def mean_speed(self):
        return sum(self.kernel_s) / len(self.kernel_s)
