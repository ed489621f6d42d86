"""Host-speed correction of measured times.

The benchmark runs on a few vCPUs of a shared host.  Whatever else runs on
the same physical cores slows plain Python code by up to 2x, on a time
scale of seconds, and the guest sees none of it: no steal time, CPU time
equal to wall time.  A job's wall time therefore measures the neighbours
as much as the program.

``SpeedMeter`` measures the host's speed during the measured interval
itself.  A SIGALRM every ``PERIOD_S`` seconds runs ``kernel``, a fixed
piece of pure-Python work, and records how long it took.  Each stretch of
the program between two kernels is credited at the speed the kernel
measured at its end (the median of it and its two neighbours, so that one
preempted kernel does not count); the sum is the interval's length in
kernel units.  Multiplied by ``KERNEL_REF_S``, the kernel's time on an
unloaded reference host, it is the time the interval would have taken
there.  The kernels' own time is left out, and it is only a few per cent
of the interval.

The correction assumes the program slows down with the host the way the
kernel does.  It holds for the workloads here to a few per cent: over a
minute of jobs whose wall time varied by 25 %, the corrected times varied
by 2-6 %.  It reads in seconds, but it is a time at the reference speed:
the raw wall time is reported next to it.

The kernel uses the standard library only, so set-up can be metered from
the first line, before numpy is imported.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
# median time of one kernel on the reference host (2 vCPUs of an Intel Xeon,
# Python 3.11) in its fastest stretches; the scale of the corrected times
KERNEL_REF_S = 1.2e-4


def kernel() -> float:
    """Fixed pure-Python work: float arithmetic, a loop, dict stores."""
    acc, table = 0.0, {}
    for i in range(800):
        x = (i % 7) * 0.5
        acc += x - acc * 1e-6
        table[i & 31] = acc
    return acc


class SpeedMeter:
    """Times one interval both by the wall clock and at the reference speed.

        meter = SpeedMeter()
        meter.start()
        ...                       # the work to time
        wall_s, ref_s = meter.stop()
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self._samples = []          # (kernel start, kernel seconds)
        self._busy = False
        self._t0 = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self._samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self) -> None:
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> tuple:
        """(wall seconds, seconds at the reference speed) since ``start``."""
        t_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        samples = self._samples
        if not samples:             # shorter than one period: measure once
            t0 = time.perf_counter()
            kernel()
            samples = [(t_end, time.perf_counter() - t0)]
        kernels = [k for _, k in samples]
        units, last = 0.0, self._t0
        for i, (start, _) in enumerate(samples):
            k = statistics.median(kernels[max(i - 1, 0):i + 2])
            units += (start - last) / k
            last = start + kernels[i]
        units += max(t_end - last, 0.0) / statistics.median(kernels[-2:])
        return t_end - self._t0, units * KERNEL_REF_S
