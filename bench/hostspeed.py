"""Host-speed sampling for the cayley4 benchmark.

On a shared host, other tenants slow every instruction of the benchmark's
process, by up to ~2x, in spells that switch within seconds and can last
for minutes.  While a HostSpeed is active it times a short fixed probe
every SAMPLE_INTERVAL_S of wall time, from a SIGALRM handler in the
benchmark's own thread.  The handler runs the probe twice and times the
second run, so that the probe's data is in cache and its time does not
depend on how much cache the interrupted program was using.  The probe's
own time is left out of every measured interval.

`scaled` turns a measured time into the time it would have taken on a
host where the probe takes PROBE_REF_S (about an idle 2-vCPU Xeon VM),
using the mean probe time inside the measured interval less its highest
and lowest tenth, widened to the MIN_SAMPLES nearest probes for short
intervals.  A mean and not a median, because the host flips between a
fast and a slow state within seconds and an interval's time follows the
share of each.

The probe is fixed benchmark code, independent of cayley4, that mixes what
the package does: interpreter work on a dict of tuples and small numpy
linear algebra over distinct arrays.  It must not change, or times measured
before and after the change stop being comparable.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.0003
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 8

_rng = np.random.default_rng(12345)
_PROBE_DICT = {i: (i * 0.5, str(i)) for i in range(4000)}
_PROBE_MATS = [_rng.standard_normal((8, 8)) for _ in range(200)]
_PROBE_VECS = [_rng.standard_normal(8) for _ in range(200)]
del _rng


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth of the values."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def probe() -> float:
    """The fixed probe: well under a millisecond on an idle host."""
    s = 0.0
    for k in range(0, 4000, 8):
        a, b = _PROBE_DICT[k]
        s += a * 0.5 + len(b)
    for i in range(0, 200, 5):
        m, v = _PROBE_MATS[i], _PROBE_VECS[i]
        s += float(v @ m @ v) + float(np.linalg.det(m))
    return s


class HostSpeed:
    """Probe timings over a run; `with host:` turns sampling on."""

    def __init__(self):
        self.times: list[float] = []       # perf_counter at the middle of each probe
        self.durations: list[float] = []
        self.overhead_s = 0.0              # time spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()                       # a collection now would be the program's
        try:
            probe()                        # brings the probe's data into cache
            t0 = time.perf_counter()
            probe()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.overhead_s

    def since(self, mark: tuple[float, float]) -> float:
        """Wall time since mark(), less the time the probe took meanwhile."""
        t, overhead = mark
        return time.perf_counter() - t - (self.overhead_s - overhead)

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """seconds, measured between perf_counter times t0 and t1, at the
        reference host speed."""
        times = self.times
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return seconds * PROBE_REF_S / trimmed_mean(self.durations[lo:hi])
