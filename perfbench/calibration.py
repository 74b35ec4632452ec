"""Machine-speed calibration for the timed runs.

The machines this benchmark runs on are shared: the same pure-Python loop
can take 1.5x longer a second later.  So each timed run measures a fixed
calibration next to its ops and scales every op's wall time by
``REFERENCE / calibration``, with the calibrations taken nearest the op
in time.  Reported times are then "reference seconds": wall seconds on a
machine where the calibration takes its reference time.  The calibration
is benchmark code, so a change to cdwtunnel moves the scaled times exactly
as it moves the wall times.

Two calibrations exist because the two kinds of op run in different
places.  In-process ops are scaled by runs of ``_kernel``, interpreter
work in their own process, taken on a timer all through the run, during
ops as well (``Sampler``): the machine's speed changes within tens of
milliseconds, and a calibration tracks an op only when it runs close to
it in time.  A ``python -m cdwtunnel.cli`` op is mostly a fresh
interpreter importing numpy, so cli ops are scaled by such processes,
taken between ops (``Speed``).
"""

import bisect
import contextlib
import math
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

KERNEL_REFERENCE_S = 2e-3
CHILD_REFERENCE_S = 0.15


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _simpson(f, a, fa, b, fb, m, fm, whole, tol):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson(f, a, fa, m, fm, lm, flm, left, 0.5 * tol) + _simpson(f, m, fm, b, fb, rm, frm, right, 0.5 * tol)


def _kernel():
    # The mix the pure backend spends its time on: scalar math calls, small
    # frozen dataclasses, list building, a small numpy array, and a
    # recursive adaptive Simpson rule calling a closure.  Code of different
    # kinds slows down by different amounts on a busy machine, so the
    # calibration holds each kind.
    acc = 0.0
    points = []
    for i in range(1, 600):
        x = i * 0.01
        acc += math.exp(-x) * math.cosh(0.5 * x) / math.sqrt(x)
        points.append(_Point(x, acc))
    k = 7.3
    f = lambda x: math.cos(k * x)  # noqa: E731
    whole = 4.0 / 6.0 * (f(-2.0) + 4.0 * f(0.0) + f(2.0))
    acc += _simpson(f, -2.0, f(-2.0), 2.0, f(2.0), 0.0, f(0.0), whole, 1e-10)
    return acc + float(np.sum(np.tanh(np.array([p.y for p in points]))))


def kernel_seconds(budget=0.01):
    """Median run time of the calibration kernel over ``budget`` seconds (5 runs at least).

    A median, not a minimum: an op's wall time averages over the machine's
    fast and slow moments, and so must the calibration that scales it.
    """
    runs = []
    start = time.perf_counter()
    while len(runs) < 5 or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def child_seconds(env, cwd, budget=0.0):
    """Median wall time of fresh interpreters that import numpy, run for ``budget`` seconds (once at least)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class Speed:
    """Calibrations taken between ops, at most one per ``interval`` seconds.

    Each calibration runs for 5% of the time since the previous one (10 ms
    at least).  Call ``tick()`` before each op and keep the slot it
    returns; call ``close()`` after the last op.  ``scale(slot)`` then
    turns that op's wall seconds into reference seconds, from the median
    of the calibrations just before and after it and ``WINDOW`` more on
    each side: one calibration is a single process, too noisy alone.
    """

    WINDOW = 2

    def __init__(self, measure, reference, interval):
        self.measure = measure
        self.reference = reference
        self.interval = interval
        self.samples = []
        self._last = None

    def _calibrate(self):
        now = time.perf_counter()
        budget = 0.01 if self._last is None else max(0.01, 0.05 * (now - self._last))
        self.samples.append(self.measure(budget))
        self._last = time.perf_counter()

    def tick(self):
        if self._last is None or time.perf_counter() - self._last >= self.interval:
            self._calibrate()
        return len(self.samples) - 1

    def close(self):
        self._calibrate()

    def scale(self, slot):
        return self.reference / statistics.median(self.samples[max(0, slot - self.WINDOW):slot + 2 + self.WINDOW])


class Sampler:
    """Calibration kernel runs on a timer signal, all through a run of ops.

    While ``running()``, SIGALRM runs the kernel once every ``period``
    seconds in the ops' own thread, during ops too.  A verify pass takes
    seconds and sees the machine's speed change several times; a fit takes
    tens of milliseconds.  Both are scaled by the runs that started during
    the op or within one period of it (the nearest run if none did).
    ``stolen(t0, t1)`` is the time the kernel took inside an op that ran
    from ``t0`` to ``t1``, which the caller takes off the op's time.
    """

    def __init__(self, period):
        self.period = period
        self.starts = []
        self.samples = []  # seconds of each kernel run, in order

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def stolen(self, t0, t1):
        # A run never straddles t0 or t1: the handler runs between bytecodes.
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.samples[lo:hi])

    def scale(self, span):
        t0, t1 = span
        lo = bisect.bisect_left(self.starts, t0 - self.period)
        hi = bisect.bisect_right(self.starts, t1 + self.period)
        if lo == hi:  # no run near the op: the nearest one
            lo = min(max(lo - 1, 0), len(self.samples) - 1)
            hi = lo + 1
        return KERNEL_REFERENCE_S / statistics.median(self.samples[lo:hi])
