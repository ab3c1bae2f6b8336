"""Where the benchmark runs, and how fast that host is right now.

The benchmark shares its host with other tenants.  On a 2-vCPU guest the
fixed pure-Python loop :func:`probe` was measured to run ~1.8x slower
for stretches of a fraction of a second to tens of seconds,
independently per vCPU, while the other vCPU ran at full speed; on top
of that, both vCPUs drift together by ~10% over minutes, and the
simulator drifts with them.  The kernel's scheduler cannot see either,
so :meth:`Placement.check` times the probe on the current CPU and, when
it runs slow, moves the process to the allowed CPU that probes fastest.
:meth:`Placement.probe_time` reports how long the probe typically took
over the run, which measures the drift.
"""

from __future__ import annotations

import os
import time

#: A probe slower than this multiple of the fastest probe seen so far
#: marks the current CPU as contended.
SLOW = 1.25

_DATA = list(range(64))


def probe() -> float:
    """Seconds taken by a fixed ~0.06 ms pure-Python loop."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    data = _DATA
    for i in range(600):
        v = data[i & 63] + i
        counts[v & 31] = counts.get(v & 31, 0) + 1
    return time.perf_counter() - t0


class Placement:
    """Pins the process to one allowed CPU and moves it when that CPU is
    contended; :meth:`release` restores the original affinity."""

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        #: Every probe timed on arrival at :meth:`check`, in seconds.
        self.probes: list[float] = []
        self.fastest = float("inf")
        self.moves = 0
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[0]})

    def check(self) -> None:
        here = probe()
        self.probes.append(here)
        self.fastest = min(self.fastest, here)
        if len(self.cpus) < 2 or here <= self.fastest * SLOW:
            return
        current = os.sched_getaffinity(0)
        best, best_probe = current, here
        for cpu in self.cpus:
            if {cpu} == current:
                continue
            os.sched_setaffinity(0, {cpu})
            candidate = probe()
            if candidate < best_probe:
                best, best_probe = {cpu}, candidate
        os.sched_setaffinity(0, best)
        self.moves += best != current

    def probe_time(self) -> float:
        """The 25th percentile of the probes timed so far, in seconds:
        the host's speed over the run, with contended moments left out."""
        ordered = sorted(self.probes)
        return ordered[len(ordered) // 4]

    def release(self) -> None:
        os.sched_setaffinity(0, self.allowed)
