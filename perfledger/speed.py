"""The machine's speed, measured beside the workload, and times scaled to one speed.

The ledger runs on shared virtual machines whose cores change speed
for seconds to minutes at a time, each core on its own: a fixed
pure-Python loop ran 30% slower on one core for 8 s while the other
core kept its speed.  Raw times of two runs of the same code then
differ by more than any bound a regression could be told apart with.

So every pass takes *probes* — a fixed pure-Python loop, about 1 ms —
on the core its timed work runs on, between requests, and reports each
request's time at the reference speed: the measured seconds times
``REFERENCE_S`` over the median probe duration near the request.  A
change that makes the program faster or slower moves that number; a
core that slows down moves program and probe together, and mostly
cancels out (README.md, "Steadiness", says how far).  Probes run
outside every timed span, so they never count as request time.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import statistics
import time

from typing import Iterator, List, Optional, Tuple

#: Loop iterations of one probe.
PROBE_ITERATIONS = 10_000
#: A probe's duration at the reference speed: times are reported as if
#: the probe had taken exactly this long.
REFERENCE_S = 1e-3
#: After a request, a probe is taken only once this long after the last.
CADENCE_S = 0.02
#: Probes this close to a request's start or end give its speed ...
WINDOW_S = 2.0
#: ... or at least this many, the nearest in time, when fewer are that close.
MIN_PROBES = 5

_TABLE = {key: key * 31 for key in range(256)}


def _loop(iterations: int) -> int:
    table = _TABLE
    total = 0
    for i in range(iterations):
        total += table[i & 255] ^ (i >> 3)
    return total


class SpeedProbe:
    """Probe durations on one core, in time order."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: (start, seconds) of every probe.
        self.samples: List[Tuple[float, float]] = []
        self.last = float("-inf")

    def take(self, count: int = 1) -> None:
        """Run ``count`` probes now (the collector is paused, so a
        collection of the program's heap does not land in one)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = self.clock()
                _loop(PROBE_ITERATIONS)
                self.samples.append((start, self.clock() - start))
        finally:
            if enabled:
                gc.enable()
        self.last = self.clock()

    def tick(self) -> None:
        """One probe, unless the last one was less than CADENCE_S ago."""
        if self.clock() - self.last >= CADENCE_S:
            self.take()

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference the core ran around
        ``[start, end]``: the median probe near it over REFERENCE_S."""
        if not self.samples:
            raise RuntimeError("no speed probe was taken")
        times = [t for t, _ in self.samples]
        low = bisect.bisect_left(times, start - WINDOW_S)
        high = bisect.bisect_right(times, end + WINDOW_S)
        near = self.samples[low:high]
        if len(near) < MIN_PROBES:
            middle = (start + end) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_PROBES]
        return statistics.median(seconds for _, seconds in near) / REFERENCE_S


def cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Run the block on one core (``None``: wherever the process may run)."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)
