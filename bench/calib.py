"""Host-speed calibration: a fixed piece of work, timed while queries run.

On a shared host the speed of a vCPU drifts by a quarter or more, in phases
that can outlast a whole run, so the median over a run's passes cannot remove
them.  The worker therefore times ``kernel`` (a fixed mix of interpreter work
and small numpy indexing, like ringlat's own) every ``INTERVAL_S`` seconds,
also in the middle of a query, and divides each query's time by how much
slower than ``REFERENCE_S`` the kernel ran during it.  ``clock`` leaves out
the time spent calibrating, so no query or span is charged for it.  The
reported times are seconds on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one ``kernel`` call on a quiet 2-vCPU VM with Python 3.11.7
# and numpy 2.4.6.  It only sets the scale of the reported times: both
# commits of a comparison use the same value.
REFERENCE_S = 0.0034
# Kernel calls per calibration; the calibration is their median.
REPEATS = 3
INTERVAL_S = 0.1

_TABLE = ((np.arange(64 * 64, dtype=np.int32) * 37) % 64).reshape(64, 64)

# Slowdowns measured by ``sample``, in order, and the seconds they took.
samples: list[float] = []
_spent = 0.0
_busy = False


def kernel() -> int:
    s = 0
    d = {}
    for i in range(6000):
        s += (i * i) % 7
        d[i & 255] = s
    for i in range(150):
        idx = np.arange(i % 50, i % 50 + 10)
        s += int(np.unique(_TABLE[np.ix_(idx, idx)].ravel()).sum())
    return s


def calibrate() -> float:
    """How many times slower than the reference the host runs ``kernel`` now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


def clock() -> float:
    """``time.perf_counter`` less the time spent in ``sample``."""
    return time.perf_counter() - _spent


def sample(*_) -> None:
    """Append a calibration to ``samples``; also the SIGALRM handler."""
    global _spent, _busy
    if _busy:  # a timer signal arrived during a sample
        return
    _busy = True
    t0 = time.perf_counter()
    samples.append(calibrate())
    _spent += time.perf_counter() - t0
    _busy = False


def start() -> None:
    """Sample every INTERVAL_S seconds, between bytecodes of whatever runs."""
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
