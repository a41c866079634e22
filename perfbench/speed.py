"""Machine speed, sampled next to the work, so timings can be reported at a
reference speed.

The benchmark runs on shared 2-core hosts whose cores change speed by up
to 2x within seconds, as other tenants come and go. Raw wall times of one
workload then spread by 15-40% between runs, far more than any regression
worth catching. So each worker times a fixed pure-Python probe loop on its
own core: every 20 ms of CPU time while the workload runs (SIGVTALRM, in
the one thread there is), and 16 times right after set-up. A time t taken
while the probe loop averaged p seconds is reported as t * REF_PROBE_S / p,
the time it would have taken at the speed where the probe takes
REF_PROBE_S. The probe's own time is subtracted from the workload's first.
"""

from __future__ import annotations

import signal
from time import perf_counter

REF_PROBE_S = 150e-6  # probe-loop time that defines the reference speed
PERIOD_S = 0.020  # CPU time between probes while a workload runs


def probe_loop() -> int:
    """Fixed work in the style of the program: small-int bit operations,
    a union-find walk, tuple, list and set traffic, one big-int product."""
    parent = list(range(32))
    banned = 0
    acc = 0
    for i in range(160):
        u, v = (i * 7) & 31, (i * 13 + 5) & 31
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[v] = u
        else:
            parent = list(range(32))
        banned |= 1 << (i & 63)
        if banned >> (i & 31) & 1:
            acc += len({u, v, i & 15}) + (u, v, i)[i % 3]
    return acc + ((3 ** 400) * (7 ** 300) & 0xFFFF)


def probe_s(rounds: int = 16) -> float:
    """Mean seconds per probe loop over a few back-to-back rounds."""
    t0 = perf_counter()
    for _ in range(rounds):
        probe_loop()
    return (perf_counter() - t0) / rounds


class Sampler:
    """Times probe_loop every PERIOD_S of CPU time between start() and
    stop(); the handler runs between bytecodes of the main thread."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        self.mean_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_loop()
        self.total_s += perf_counter() - t0
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling and return the mean probe time. A run shorter than
        one period has no sample, so the probe is timed once now."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        self.mean_s = self.total_s / self.count if self.count else probe_s()
        return self.mean_s

    def at_reference(self, wall_s: float) -> float:
        """wall_s without the probes, scaled to the reference speed."""
        return (wall_s - self.total_s) * REF_PROBE_S / self.mean_s
