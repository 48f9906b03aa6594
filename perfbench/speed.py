"""Host-speed probe: scales the times a run measures to a fixed reference speed.

On a VM whose cores are shared with other tenants, the speed of pure-Python
work swings by up to 1.7x over seconds to minutes (measured with the kernel
below on a 2-vCPU Intel Xeon VM).  No run length averages that out, so the
probe samples the host's speed all through a run and every time the
benchmark reports is scaled to the reference speed:

    scaled = measured * REFERENCE_KERNEL_S / median kernel time over the interval

A timer signal runs the kernel every ``PERIOD_S`` seconds of wall-clock
time inside whatever the process is doing (an import, a setup, an op), so a
long op is scaled by samples taken while it ran; an interval shorter than
``WINDOW_S`` is scaled by the samples of the last ``WINDOW_S`` seconds.
The time spent in the kernel is subtracted from the interval it
interrupted.  The kernel is standard-library code that no change to the
library under test can speed up or slow down.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, NamedTuple

# The kernel's time on an idle 2-vCPU Intel Xeon VM under CPython 3.11:
# scaled times equal wall-clock times there.
REFERENCE_KERNEL_S = 0.6e-3
KERNEL_STEPS = 4000
PERIOD_S = 0.05
WINDOW_S = 1.0


def kernel_s() -> float:
    """Seconds taken by a fixed loop of integer and dict work, the kind of
    work the library spends its time on."""
    t = time.perf_counter()
    d = {}
    s = 0
    for i in range(KERNEL_STEPS):
        s = (s * 31 + i) % 1000003
        d[i & 255] = (s, i)
    return time.perf_counter() - t


class Mark(NamedTuple):
    wall: float        # perf_counter
    cpu: float         # process_time
    probe_wall: float  # wall time spent in the probe so far
    probe_cpu: float   # CPU time spent in the probe so far


class Interval(NamedTuple):
    wall: float   # wall-clock seconds, probe time excluded
    cpu: float    # process CPU seconds, probe time excluded
    scale: float  # factor to the reference speed

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * self.scale


class SpeedProbe:
    def __init__(self):
        self.at: List[float] = []    # perf_counter at each sample
        self.took: List[float] = []  # kernel seconds of each sample
        self.wall = 0.0
        self.cpu = 0.0

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        c = time.process_time()
        took = kernel_s()
        self.at.append(t)
        self.took.append(took)
        self.wall += time.perf_counter() - t
        self.cpu += time.process_time() - c

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), time.process_time(), self.wall, self.cpu)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from times measured over [t0, t1] to the reference speed."""
        lo = bisect.bisect_left(self.at, min(t0, t1 - WINDOW_S))
        hi = bisect.bisect_right(self.at, t1)
        window = self.took[lo:hi] or self.took[max(0, hi - 5):hi + 5]
        return REFERENCE_KERNEL_S / statistics.median(window)

    def since(self, m: Mark, now: Mark = None) -> Interval:
        """The interval from ``m`` to ``now`` (default: this moment)."""
        e = now or self.mark()
        return Interval(e.wall - m.wall - (e.probe_wall - m.probe_wall),
                        e.cpu - m.cpu - (e.probe_cpu - m.probe_cpu),
                        self.scale(m.wall, e.wall))
