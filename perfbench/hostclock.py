"""Host-speed correction for the benchmark's timings.

The benchmark shares its cores with other tenants, and while they run
the same Python code takes up to ~1.7x as long -- for tens of seconds
at a time, in CPU time as well as in wall time, so neither longer runs
nor medians average it away.  A fixed reference loop, which is not the
program and so never changes with it, slows by nearly the same factor
(1.65-1.70x against the simulator's 1.64x on a 2-vCPU Xeon VM).

:class:`HostClock` times that loop while the benchmark runs and rescales
an interval of wall time to what it would have taken at the pinned
quiet-host speed ``REFERENCE_LOOP_S``:

    scaled = own wall time x mean(REFERENCE_LOOP_S / loop time)

over the loop timings taken during (or, for a bracketed interval,
around) it.  ``own wall time`` excludes the loop's own runs.  Samples
come either from an interval timer that interrupts the measured code
(:meth:`HostClock.sampling`, for a simulation run in this process) or
from loop runs just before and after the interval
(:meth:`HostClock.bracket`, for a fresh process's set-up, or for a
traced run, whose spans must not contain samples).  Work done in other
processes is not rescaled: a loop run here would delay or contend with
it, and bracketing a multi-second interval proved noisier than the raw
wall.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import List, Tuple

#: seconds one :func:`reference_loop` takes on a quiet host when it
#: interrupts the simulator, on a 2-vCPU Intel Xeon VM; it only sets the
#: unit of the scaled timings, so that they read about as quiet-host
#: seconds
REFERENCE_LOOP_S = 0.0065
#: seconds between timer samples of :meth:`HostClock.sampling`
PERIOD_S = 0.2
#: loop runs of one :meth:`HostClock.bracket`
BRACKET_RUNS = 5
#: how far before or after an interval bracketing samples may lie
BRACKET_REACH_S = 2.0


class _Slot:
    __slots__ = ("ident", "load", "speed", "recent")

    def __init__(self, ident: int):
        self.ident = ident
        self.load = 0.0
        self.speed = 1.0 + ident % 3
        self.recent: List[float] = []


def reference_loop(slots: int = 2048, events: int = 4000) -> int:
    """A small fixed event loop of the kind the simulator runs -- heap
    pops and pushes, attribute updates, dict and list traffic -- over a
    working set larger than the first-level caches."""
    rng = random.Random(7)
    index = {ident: _Slot(ident) for ident in range(slots)}
    heap = [(rng.random(), ident, ident) for ident in range(512)]
    heapq.heapify(heap)
    tally: dict = {}
    for seq in range(512, 512 + events):
        now, _, ident = heapq.heappop(heap)
        slot = index[ident]
        slot.load = slot.load * 0.9 + now / slot.speed
        slot.recent.append(now)
        if len(slot.recent) > 8:
            slot.recent.pop(0)
        key = (ident, len(slot.recent))
        tally[key] = tally.get(key, 0) + 1
        heapq.heappush(heap, (now + rng.expovariate(slot.speed), seq,
                              (ident * 7919 + seq) % slots))
    return len(tally)


class HostClock:
    """Timings of :func:`reference_loop`, kept as ``(start, seconds)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        # with the collector held off, the loop's allocations cannot
        # trigger (and so take the blame for) a collection of the
        # program's heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            reference_loop()
            spent = time.perf_counter() - began
        finally:
            if collecting:
                gc.enable()
        self.samples.append((began, spent))
        return spent

    def bracket(self) -> None:
        for _ in range(BRACKET_RUNS):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` from a real-time interval timer
        while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, began: float, ended: float) -> float:
        """Quiet-host seconds of the wall interval ``[began, ended)``."""
        inside = [spent for at, spent in self.samples if began <= at < ended]
        near = inside or [spent for at, spent in self.samples
                          if began - BRACKET_REACH_S <= at < ended + BRACKET_REACH_S]
        if not near:
            raise RuntimeError("no host-speed sample in or near the interval")
        own = ended - began - sum(inside)
        return own * statistics.mean(REFERENCE_LOOP_S / spent for spent in near)
