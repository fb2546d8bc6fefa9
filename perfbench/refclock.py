"""A clock that runs at the host's reference speed, not at its momentary speed.

The benchmark runs on a few cores of a shared host. Seen from one
process, that host's speed changes by up to a factor of two within
seconds, with no steal time reported: other tenants' load, not the
program, sets most of the run-to-run spread of a plain wall time.

While a stretch of work runs, a :class:`Sampler` times a fixed probe
every ``INTERVAL_S`` from a ``SIGALRM`` handler (and once at each end).
The probe is two pure-Python loops: integer arithmetic, and a sum of
floats read in random order from a pool of about 10 MB. The first slows
when another tenant shares the core, the second when it shares the
caches; the program's work slows with both, and their sum tracked its
pass times better than either alone or than numpy probes did.

Each gap between two probes is divided by the slow-down around it: the
mean duration of those two probes over ``REFERENCE_PROBE_NS`` (wider
windows tracked the program's pass times less well). A duration on the resulting clock is the time
the work would have taken with the host at the speed at which the probe
takes ``REFERENCE_PROBE_NS``. The probes' own time is left out of both
the wall and the reference durations.

The probe is code of the benchmark, not of the program, so a change to
the program moves the work's reference time and leaves the probes'
times alone. Python signal handlers run between bytecodes, so a long
call into C (a numpy kernel, a file read) postpones the next probe
until it returns; that gap is then scaled by the probes around it.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

PROBE_ITERATIONS = 3_000
_POOL = [float(i) for i in range(300_000)]
_ORDER = random.Random(0).choices(range(len(_POOL)), k=PROBE_ITERATIONS)
# The probe's duration between bursts of the program's work, which leave
# the pool out of cache, on a 2-vCPU Intel Xeon VM at its faster moments
# (a tight loop of probes takes 0.3-0.7 ms). It only fixes the unit.
REFERENCE_PROBE_NS = 1_000_000
INTERVAL_S = 0.05


def _probe_loop() -> float:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    pool, acc = _POOL, 0.0
    for i in _ORDER:
        acc += pool[i]
    return acc + total


class Sampler:
    """Probes the host's speed while a stretch of work runs."""

    def __init__(self) -> None:
        self.probes: list[tuple[int, int]] = []

    def probe(self) -> None:
        start = time.perf_counter_ns()
        _probe_loop()
        self.probes.append((start, time.perf_counter_ns()))

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def clock(self) -> Clock:
        return Clock(self.probes)


class Clock:
    """Wall and reference durations between instants inside a sampled stretch."""

    def __init__(self, probes: list[tuple[int, int]]) -> None:
        if len(probes) < 2:
            raise ValueError("a reference clock needs a probe at each end")
        self.probes = probes
        self.starts = [a for a, _ in probes]
        durations = [b - a for a, b in probes]
        self.slowdowns = []
        # Cumulative wall and reference ns (probe time left out) at each probe.
        self.wall = [0]
        self.ref = [0.0]
        for k in range(1, len(probes)):
            slowdown = (durations[k - 1] + durations[k]) / 2 / REFERENCE_PROBE_NS
            gap = probes[k][0] - probes[k - 1][1]
            self.slowdowns.append(slowdown)
            self.wall.append(self.wall[-1] + gap)
            self.ref.append(self.ref[-1] + gap / slowdown)

    def _at(self, t: int) -> tuple[int, float]:
        """Cumulative (wall, reference) ns at instant ``t``."""
        if not self.probes[0][1] <= t <= self.probes[-1][0]:
            raise ValueError("instant outside the sampled stretch")
        k = bisect.bisect_right(self.starts, t)
        previous_end = self.probes[k - 1][1]
        if t <= previous_end:  # inside probe k-1
            return self.wall[k - 1], self.ref[k - 1]
        gap = t - previous_end
        return self.wall[k - 1] + gap, self.ref[k - 1] + gap / self.slowdowns[k - 1]

    def wall_s(self, start_ns: int, end_ns: int) -> float:
        return (self._at(end_ns)[0] - self._at(start_ns)[0]) / 1e9

    def reference_s(self, start_ns: int, end_ns: int) -> float:
        return (self._at(end_ns)[1] - self._at(start_ns)[1]) / 1e9

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns)
