"""Reference seconds: wall time rescaled by how fast the host runs right now.

On a shared or virtualised host the speed at which one CPU executes Python
can drift by tens of percent over seconds to minutes.  To keep throughput
comparable between runs, ``SpeedProbe`` times a fixed pure-Python loop
(independent of singcensus, about 1 ms) every SAMPLE_INTERVAL_S seconds from
a SIGALRM handler while a measurement runs; denser samples track the drift
better than sparser ones.  Each stretch of work between two samples is
converted to reference seconds at the loop speed measured around it, and
the loop's own time is left out of the work.  A reference second is the
time in which the loop runs 1000 times.
"""

import signal
import statistics
import time

REFERENCE_LOOP_NS = 1_000_000
SAMPLE_INTERVAL_S = 0.05
_WIDE = (1 << 3000) // 7


def reference_loop():
    """Fixed work mixing tuple keys, dict updates, small-integer arithmetic,
    a sort and wide-integer multiply-adds: the operations the Groebner
    kernel and the packed-row linear algebra spend their time on."""
    acc = {}
    for i in range(2200):
        key = (i % 7, i % 11, i % 13)
        acc[key] = (acc.get(key, 0) + i * 31) % 10007
    row = 0
    for c in range(1, 400):
        row = (row + c * _WIDE) >> 1
    return len(sorted(acc.items(), key=lambda t: t[1])) + row.bit_length()


def loop_ns(runs=1):
    """Median time of ``runs`` runs of the reference loop."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        reference_loop()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def to_reference_s(wall_ns, loop):
    """Wall nanoseconds at a measured loop time, in reference seconds."""
    return wall_ns * REFERENCE_LOOP_NS / loop / 1e9


class SpeedProbe:
    """Context manager: samples the reference loop while its body runs.

    ``work_s`` is the wall time of the body without the samples;
    ``reference_s`` is the same time in reference seconds.
    """

    def __init__(self):
        self.segments = []  # (work ns since the last sample, loop ns)

    def __enter__(self):
        self._loop = loop_ns()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter_ns()
        loop = loop_ns()
        self.segments.append((start - self._last, (self._loop + loop) / 2))
        self._loop = loop
        self._last = time.perf_counter_ns()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    @property
    def work_s(self):
        return sum(work for work, _ in self.segments) / 1e9

    @property
    def reference_s(self):
        return sum(to_reference_s(work, loop) for work, loop in self.segments)
