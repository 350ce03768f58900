"""Processor-shared rate resources: the virtual-time fluid model.

A :class:`RateResource` models a device that serves several claims at
once by splitting its capacity equally (egalitarian processor
sharing): *n* active claims each progress at ``rate_per_claim()``
units per second.  CPUs and disks subclass only to define how capacity
scales with the number of claims.

Because sharing is egalitarian, every active claim receives service at
the *same* instantaneous rate, so the resource can keep one cumulative
per-claim service function ``S(t)`` (the "virtual time") instead of
per-claim countdowns.  A claim admitted with ``u`` units remaining
completes when ``S`` crosses ``S_at_admit + u`` -- its *virtual finish
key* -- and a milestone at ``m`` units remaining fires when ``S``
crosses ``finish_key - m``.  Both kinds of crossing live in one lazy
min-heap keyed by virtual time, and the resource arms exactly **one**
engine event: for the earliest crossing.  The payoff over the previous
eager model (settle + re-arm every claim's event on every state
change):

* completion *order* among active claims is invariant under rate
  changes, so rate changes never reorder the heap;
* activate/pause/cancel are O(log n) heap traffic for the touched
  claim only;
* a speed-factor change (slow-node fault injection) is O(1): advance
  ``S`` at the old rate, then re-aim the single armed event;
* remaining work is *derived* (``finish_key - S``) rather than
  repeatedly decremented, so long replays cannot accumulate per-settle
  floating-point drift.

This is exact for piecewise-constant rates, which is all a
discrete-event model needs.

Claims also support **milestones**: callbacks fired at the exact
instant the remaining work crosses a threshold.  The experiment
harness uses them to trigger the high-priority job at precisely the
moment the low-priority task reaches r% progress, matching the paper's
dummy-scheduler triggers.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Set

from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.events import EventHandle

_EPS = 1e-9


class _Milestone:
    """A threshold on a claim's remaining work."""

    __slots__ = ("threshold", "callback", "fired")

    def __init__(self, threshold: float, callback: Callable[[], None]):
        self.threshold = threshold
        self.callback = callback
        self.fired = False


class Claim:
    """One unit of in-progress work on a :class:`RateResource`.

    ``on_done`` fires when ``units`` of service have been delivered.
    The owner may pause the claim (removing it from service) and later
    resume it; remaining work is preserved exactly.
    """

    __slots__ = (
        "resource",
        "initial",
        "on_done",
        "label",
        "owner",
        "active",
        "done",
        "milestones",
        "_remaining",
        "_vfinish",
        "_epoch",
        "_live_entries",
    )

    def __init__(
        self,
        resource: "RateResource",
        units: float,
        on_done: Callable[[], None],
        label: str = "",
        owner: Any = None,
    ):
        self.resource = resource
        self.initial = float(units)
        self.on_done = on_done
        self.label = label
        self.owner = owner
        self.active = False
        self.done = False
        self.milestones: List[_Milestone] = []
        #: authoritative remaining units while inactive; while active
        #: the truth is ``_vfinish - S`` (see :attr:`remaining`)
        self._remaining = float(units)
        #: virtual-time key at which this claim completes (valid while
        #: active)
        self._vfinish = 0.0
        #: bumped on every deactivation; crossing-heap entries carrying
        #: an older epoch are dead and discarded lazily
        self._epoch = 0
        #: live crossing-heap entries referencing this claim
        self._live_entries = 0

    @property
    def rate(self) -> float:
        """Current service rate (units/second); 0 when paused."""
        if not self.active:
            return 0.0
        return self.resource.rate_per_claim()

    @property
    def remaining(self) -> float:
        """Units of service still owed, settled to now."""
        if self.active:
            return max(0.0, self._vfinish - self.resource._virtual_now())
        return self._remaining

    def fraction_done(self) -> float:
        """Fraction of the initial work already served, settled to now."""
        if self.initial <= 0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - self.remaining / self.initial))

    def add_milestone(self, remaining_at: float, callback: Callable[[], None]) -> None:
        """Fire ``callback`` when remaining work first drops to
        ``remaining_at`` units.  Fires immediately (as a zero-delay
        event) if the threshold is already crossed."""
        resource = self.resource
        resource.settle()
        milestone = _Milestone(remaining_at, callback)
        self.milestones.append(milestone)
        if self.remaining <= remaining_at + _EPS:
            milestone.fired = True
            resource.sim.call_soon(callback, label=f"milestone:{self.label}")
        elif self.active:
            resource._push(self._vfinish - remaining_at, self, milestone)
            resource._rearm()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Claim(label={self.label!r}, remaining={self.remaining:.1f}, "
            f"active={self.active})"
        )


class RateResource:
    """A capacity shared equally among active claims.

    Subclasses override :meth:`rate_per_claim` to model devices whose
    aggregate throughput depends on the claim count (e.g. a multi-core
    CPU serves up to ``cores`` claims at full speed).
    """

    #: crossing heaps smaller than this are never compacted
    COMPACTION_MIN_SIZE = 64

    def __init__(self, sim: Simulation, capacity: float, name: str = "resource"):
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._claims: Set[Claim] = set()
        #: degradation multiplier (slow-node fault injection); 1.0 = healthy
        self.speed_factor = 1.0
        #: cumulative per-claim service S(t); frozen while no claim is
        #: active
        self._vtime = 0.0
        #: wall-clock instant S was last brought up to date
        self._vtime_at = 0.0
        #: lazy min-heap of (virtual key, seq, claim, milestone|None,
        #: epoch) crossings; entries whose epoch lags their claim's are
        #: dead
        self._crossings: list = []
        self._cross_seq = 0
        self._stale = 0
        #: the single armed engine event, aimed at the earliest crossing
        self._armed: Optional[EventHandle] = None

    # -- policy --------------------------------------------------------

    def rate_per_claim(self) -> float:
        """Units/second each active claim currently receives."""
        n = len(self._claims)
        if n == 0:
            return self.capacity * self.speed_factor
        return self.capacity * self.speed_factor / n

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) the device to ``factor`` of nominal speed.

        In-flight service is settled at the old rate first, then the
        single armed crossing event is re-aimed -- O(1), where the
        eager model re-armed one event per active claim.  Models
        slow-node faults (failing disk, thermal throttling, a noisy
        neighbour).
        """
        if factor <= 0:
            raise SimulationError(f"{self.name}: speed factor must be positive")
        self._advance()
        self.speed_factor = float(factor)
        self._rearm()

    # -- claim lifecycle -------------------------------------------------

    def submit(
        self,
        units: float,
        on_done: Callable[[], None],
        label: str = "",
        owner: Any = None,
    ) -> Claim:
        """Create and immediately activate a claim for ``units`` of work."""
        claim = Claim(self, units, on_done, label=label, owner=owner)
        self.activate(claim)
        return claim

    def create(
        self,
        units: float,
        on_done: Callable[[], None],
        label: str = "",
        owner: Any = None,
    ) -> Claim:
        """Create a claim without activating it (caller activates later)."""
        return Claim(self, units, on_done, label=label, owner=owner)

    def activate(self, claim: Claim) -> None:
        """Begin (or resume) serving ``claim``."""
        if claim.active or claim.done:
            return
        self._advance()
        claim.active = True
        claim._vfinish = self._vtime + claim._remaining
        self._claims.add(claim)
        self._push(claim._vfinish, claim, None)
        for milestone in claim.milestones:
            if not milestone.fired:
                self._push(claim._vfinish - milestone.threshold, claim, milestone)
        self._rearm()

    def pause(self, claim: Claim) -> None:
        """Stop serving ``claim``, preserving its remaining work."""
        if not claim.active:
            return
        self._advance()
        claim._remaining = max(0.0, claim._vfinish - self._vtime)
        claim.active = False
        self._claims.discard(claim)
        self._invalidate(claim)
        self._rearm()

    def cancel(self, claim: Claim) -> None:
        """Abort ``claim`` entirely (completion callback never fires)."""
        self.pause(claim)
        claim.done = True

    # -- virtual clock ----------------------------------------------------

    def settle(self) -> None:
        """Bring the virtual clock up to now.

        Purely an accounting sync -- derived views (remaining work,
        fractions) are exact without it -- but model code that is about
        to read several of them at one instant may call this once
        instead of paying the projection per read.
        """
        self._advance()

    def _virtual_now(self) -> float:
        """S projected to the current instant (no state mutation)."""
        elapsed = self.sim.now - self._vtime_at
        if elapsed > 0 and self._claims:
            return self._vtime + self.rate_per_claim() * elapsed
        return self._vtime

    def _advance(self) -> None:
        """Accrue service since the last update into the virtual clock.

        Must run *before* any mutation of the claim set or the speed
        factor -- the elapsed interval was served under the old rate
        (the piecewise-constant contract).
        """
        now = self.sim.now
        elapsed = now - self._vtime_at
        if elapsed > 0:
            if self._claims:
                self._vtime += self.rate_per_claim() * elapsed
            self._vtime_at = now
        elif not self._claims:
            self._vtime_at = now

    # -- crossing heap ------------------------------------------------------

    def _push(self, vkey: float, claim: Claim, milestone: Optional[_Milestone]) -> None:
        self._cross_seq += 1
        heapq.heappush(
            self._crossings, (vkey, self._cross_seq, claim, milestone, claim._epoch)
        )
        claim._live_entries += 1

    def _invalidate(self, claim: Claim) -> None:
        """Mark every heap entry of ``claim`` dead (lazily discarded)."""
        claim._epoch += 1
        self._stale += claim._live_entries
        claim._live_entries = 0
        if (
            len(self._crossings) >= self.COMPACTION_MIN_SIZE
            and self._stale * 2 > len(self._crossings)
        ):
            self._crossings = [
                entry for entry in self._crossings if entry[4] == entry[2]._epoch
            ]
            heapq.heapify(self._crossings)
            self._stale = 0

    def _peek_live(self):
        crossings = self._crossings
        while crossings:
            entry = crossings[0]
            if entry[4] != entry[2]._epoch:
                heapq.heappop(crossings)
                self._stale -= 1
                continue
            return entry
        return None

    # -- the armed event ----------------------------------------------------

    def _rearm(self) -> None:
        """Aim the single engine event at the earliest live crossing."""
        head = self._peek_live()
        armed = self._armed
        if head is None:
            if armed is not None and armed.pending:
                armed.cancel()
            self._armed = None
            return
        rate = self.rate_per_claim()
        eta = (head[0] - self._vtime) / rate
        if eta < 0.0:
            eta = 0.0
        at = self.sim.now + eta
        if armed is not None and armed.pending:
            self._armed = self.sim.reschedule(armed, at)
        else:
            self._armed = self.sim.schedule_at(
                at, self._on_crossing, label=f"{self.name}.crossing"
            )

    def _due(self, vkey: float) -> bool:
        """Is the crossing at ``vkey`` due at the current instant?

        True when S has (numerically) reached the key, and also when
        the residual is so small that re-arming could not advance the
        wall clock -- re-arming then would spin on zero-delay events.
        """
        delta = vkey - self._vtime
        if delta <= _EPS + 1e-12 * abs(vkey):
            return True
        now = self.sim.now
        return now + delta / self.rate_per_claim() <= now

    def _on_crossing(self) -> None:
        """The armed event fired: service every crossing now due.

        Callbacks may re-enter the resource (a completed work item
        typically activates its successor's claim here), so the loop
        re-reads the clock and the heap head after every callback.
        """
        self._armed = None
        while True:
            self._advance()
            head = self._peek_live()
            if head is None or not self._due(head[0]):
                break
            heapq.heappop(self._crossings)
            _, _, claim, milestone, _ = head
            claim._live_entries -= 1
            if milestone is not None:
                milestone.fired = True
                milestone.callback()
            else:
                self._complete(claim)
        self._rearm()

    def _complete(self, claim: Claim) -> None:
        # Guard against float drift: the crossing fired, so the claim
        # is done regardless of the last few ulps of S.
        claim._remaining = 0.0
        claim._vfinish = self._vtime
        claim.active = False
        claim.done = True
        self._claims.discard(claim)
        self._invalidate(claim)
        # Unfired milestones are vacuously crossed at completion.
        for milestone in claim.milestones:
            if not milestone.fired:
                milestone.fired = True
                self.sim.call_soon(
                    milestone.callback, label=f"{self.name}.milestone:{claim.label}"
                )
        claim.on_done()

    @property
    def active_claims(self) -> int:
        """Number of claims currently being served."""
        return len(self._claims)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r}, claims={len(self._claims)})"


class CpuResource(RateResource):
    """A multi-core CPU.

    Rates are expressed in core-seconds per second.  Up to ``cores``
    claims run at one core each; beyond that the cores are shared
    equally, matching the Linux CFS behaviour for equal-priority
    CPU-bound processes.
    """

    def __init__(self, sim: Simulation, cores: int, name: str = "cpu"):
        super().__init__(sim, capacity=float(cores), name=name)
        self.cores = cores

    def rate_per_claim(self) -> float:
        n = len(self._claims)
        if n == 0:
            return self.speed_factor
        return min(1.0, self.cores / n) * self.speed_factor


class DiskResource(RateResource):
    """Streaming disk bandwidth, equally shared among active streams.

    Capacity is bytes/second of sequential transfer.  Seek costs for
    short bursts are handled separately by
    :meth:`repro.osmodel.disk.DiskDevice.burst_time`; long streams are
    dominated by transfer time.
    """

    def __init__(self, sim: Simulation, bandwidth: float, name: str = "disk"):
        super().__init__(sim, capacity=bandwidth, name=name)
