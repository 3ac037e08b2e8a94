"""Machine-speed probe that makes timings comparable on a shared host.

On a host whose cores are shared with other tenants the same work can take
1.6 times longer from one minute to the next.  While installed, the probe
times a fixed pure-Python loop every ``INTERVAL_S`` seconds from a SIGALRM
handler, so its samples interleave with the work being measured.  A timing is
reported *normalised*: raw seconds times ``REFERENCE_S`` over the mean probe
time during that interval, i.e. the time the work would have taken at the
speed where the probe takes ``REFERENCE_S``.  The probe does not touch
``hrcn``, so a change to ``hrcn`` moves normalised times as it moves raw ones.

The loop is pure Python with a tiny working set, so its own time does not
depend on what the interrupted code left in the caches.
"""

import math
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 40e-6  # probe time on an idle 2-CPU Intel Xeon VM
# A sample stands for a whole tick, so a preemption that lands inside the
# 40 us probe would count as if the whole 10 ms tick had stalled; samples are
# capped at this multiple of the reference (sharing a core costs about 2x).
CAP = 2.5


def _probe_loop() -> float:
    s = 0.0
    for i in range(200):
        s += math.atan2(i * 0.5 + 1.0, 3.0) * math.hypot(i, 2.0)
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(min(time.perf_counter() - start, CAP * REFERENCE_S))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """Mean probe time since ``mark()`` returned ``since``, over the
        reference; an interval too short to hold a sample uses the last 20."""
        window = self.samples[since:] or self.samples[-20:]
        return statistics.fmean(window) / REFERENCE_S if window else 1.0

    def normalise(self, seconds: float, since: int) -> float:
        return seconds / self.slowdown(since)
