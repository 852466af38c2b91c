"""Host speed, sampled while the workload runs.

On a shared host the same code runs up to 1.7 times slower in phases that
last 0.1-0.3 s and change level over minutes.  A repetition of several
seconds meets many such phases, and a reference kernel timed before or
after it meets different ones, so it cannot tell how fast the host was
during the repetition.  A SpeedSampler therefore samples the host speed
during the repetition itself: while it runs, SIGALRM interrupts the process
every INTERVAL seconds and the handler times `kernel`, ~0.5 ms of fixed
numpy FFT work that does not touch coulombflow.

The time spent in the handler is kept in `spent`, so `clock()` reads the
elapsed time without it.  `factor()` is REFERENCE_SECONDS over the mean
kernel time; a time multiplied by it is the time at the host speed at
which the kernel takes REFERENCE_SECONDS.  The mean, not the median, is
used because a repetition's time is a sum over the host's fast and slow
phases too.  Each sample is first clipped at CLIP times the median, so that
one descheduling of the process during a sample cannot set the mean.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
REFERENCE_SECONDS = 0.0005
CLIP = 3.0


def kernel() -> float:
    """Fixed work of ~0.5 ms: small-array numpy and FFT, as the solver does."""
    x = np.cos(np.linspace(0.0, 6.0, 1024))
    for _ in range(8):
        x = np.roll(np.fft.irfft(np.fft.rfft(x) * 0.9), 1) + 1e-3
    return float(x[0])


def mean_time(samples: list[float]) -> float:
    """Mean of the kernel times, each clipped at CLIP times their median."""
    cap = CLIP * statistics.median(samples)
    return statistics.fmean(min(s, cap) for s in samples)


class SpeedSampler:
    """Times `kernel` every INTERVAL seconds between `start` and `stop`."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        kernel()  # loads numpy's FFT plan before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, since: int = 0) -> float:
        """Scale to reference host speed, from the samples after `since`."""
        samples = self.samples[since:]
        if not samples:
            raise RuntimeError("no host speed sample was taken")
        return REFERENCE_SECONDS / mean_time(samples)
