"""Host speed probe: a fixed reference computation timed beside the workload.

The benchmark runs on a few cores of a shared host whose speed changes in
phases.  Within a second the same computation switches between two speeds
about 1.4x apart, and over minutes the share of slow time drifts: on one
2-vCPU host the scale-800 fit took 5.2-6.6 s for five minutes and
7.2-9.7 s in the quarter hours before and after.  In one set of ten runs of unchanged code
the quartiles of the fit time lay 3.1 s apart around a median of 6.6 s,
and the median of thousands of 6-microsecond score reads spread by a
similar share, so the whole machine ran slower, not one layer.  Repeating
work inside a run cannot remove a phase that covers the run.

So while a run measures, a background thread times a fixed computation
(dense SVDs, elementwise numpy and a sort over a preallocated vector) every
``INTERVAL_S``.  It is the benchmark's own code and never calls the
program, so a change to the program cannot move it.  Every call it makes
releases the interpreter lock, and it is timed in thread CPU time, so
neither the workload's threads nor waiting for a core lengthen a sample;
only the speed of the core does.  The workloads keep one core busy, so the
probe mostly runs on another one; over a run both see the same phases.  A
CPU-bound end-to-end time is reported at reference speed::

    reported = measured * REFERENCE_S / mean(probe samples while it ran)

On two vCPUs of an Intel Xeon, over 26 back-to-back scale-800 fits, the
measured fit time spread 0.079 (quartile distance over median) and the
reported one 0.029; running the probe did not slow the fit.
``REFERENCE_S`` is the probe's typical sample on that host, so there the
reported time stays close to the measured one.  Runs print both.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

REFERENCE_S = 0.010
INTERVAL_S = 0.2
# A time is scaled by at least this many samples (about five seconds of
# them): the probe runs on another core, whose speed flips within a
# second out of step with the measured one, and the two agree only over
# seconds.
MIN_SAMPLES = 25

_rng = np.random.default_rng(20170417)
_DENSE = _rng.random((100, 100))
_VECTOR = _rng.random(100_000)
_BUFFER = np.empty_like(_VECTOR)


def kernel() -> float:
    """Thread CPU seconds of one pass of the reference computation."""
    began = time.thread_time()
    for _ in range(3):
        np.linalg.svd(_DENSE)
    for _ in range(6):
        np.multiply(_VECTOR, 1.5, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
        _BUFFER.sort()
    return time.thread_time() - began


class SpeedProbe:
    """Samples :func:`kernel` on a background thread while it is running."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, seconds)
        self._running = threading.Event()
        self._closed = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Sample from now on (starts the thread on first use)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop, name="perfbench-speed", daemon=True)
            self._thread.start()
        self._running.set()

    def pause(self) -> None:
        """Stop sampling, for example while another process is measured."""
        self._running.clear()

    def close(self) -> None:
        self._closed.set()
        self._running.set()
        if self._thread is not None:
            self._thread.join()

    def _loop(self) -> None:
        while True:
            self._running.wait()
            if self._closed.is_set():
                return
            sample = kernel()
            self.samples.append((time.perf_counter(), sample))
            self._closed.wait(INTERVAL_S)

    def mean_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean sample taken between two ``perf_counter`` readings.

        A window holding fewer than ``MIN_SAMPLES`` samples is widened by
        the samples nearest to it.
        """
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("the speed probe took no sample")
        times = [at for at, _ in samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < min(MIN_SAMPLES, len(samples)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        window = [seconds for _, seconds in samples[lo:hi]]
        return sum(window) / len(window)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Multiply a time measured between ``start`` and ``end`` by this."""
        return REFERENCE_S / self.mean_s(start, end)

    def since(self, start: float) -> float:
        """Seconds from ``start`` to now, at reference speed."""
        end = time.perf_counter()
        return (end - start) * self.factor(start, end)
