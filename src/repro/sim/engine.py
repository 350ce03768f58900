"""The discrete-event engine.

:class:`Simulation` owns the virtual clock and the event heap.  A
simulation run is a sequence of callback invocations at non-decreasing
virtual times; callbacks schedule further events.  The engine never
advances the clock past the next pending event, so model code can rely
on ``sim.now`` being exact at every callback.

The heap stores ``(time, seq, handle)`` tuples, so ordering is decided
by C-level tuple comparison rather than Python ``__lt__`` calls, and a
handle's key can move without touching the entries already heaped:
:meth:`Simulation.reschedule` defers a pending event to a later time by
rewriting the handle's desired key and recycling the old heap entry
when it surfaces -- the fast path the virtual-time resource model leans
on, where every rate change moves one armed event.

Typical use::

    sim = Simulation(seed=42)
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run()
"""

from __future__ import annotations

import heapq
import time as _wallclock
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingInPastError, SimulationError
from repro.sim.events import EventHandle
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


class Simulation:
    """A deterministic discrete-event simulation loop.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`.  Two
        simulations constructed with the same seed and driven by the
        same model code produce identical event sequences.
    trace:
        When true, every fired event is appended to :attr:`trace_log`.
        Useful in tests and when rendering Figure 1 style schedules.
    profile:
        When true, :meth:`step` attributes every fired event to its
        label: :attr:`label_counts` (deterministic -- same seed, same
        counts) and :attr:`label_wall` (wall seconds spent inside the
        callbacks, machine-dependent).  Observation only: the event
        sequence, RNG draws and trace records are identical with
        profiling on or off.
    """

    #: heaps smaller than this are never compacted (the rebuild would
    #: cost more than the dead entries ever will)
    COMPACTION_MIN_SIZE = 64

    def __init__(self, seed: int = 0, trace: bool = False,
                 profile: bool = False):
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.trace_log = TraceLog(enabled=trace)
        #: (time, seq, handle) entries; a pending handle is represented
        #: by exactly one entry whose key equals ``handle._entry``
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        #: heap entries that will be discarded on pop: entries of
        #: cancelled handles plus entries orphaned when a reschedule
        #: moved a handle earlier; kept exact so :attr:`pending_events`
        #: is O(1) instead of an O(n) scan
        self._dead_in_heap = 0
        self._compactions = 0
        self._scheduled = 0
        self._reschedules = 0
        self._reschedule_reuses = 0
        self._profile = profile
        self._label_counts: Dict[str, int] = {}
        self._label_wall: Dict[str, float] = {}
        #: bound once: attribute access on self would otherwise build a
        #: fresh bound-method object per scheduled event
        self._on_cancel_hook = self._note_cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant (FIFO order).
        Returns an :class:`EventHandle` that may be cancelled.
        """
        if delay < 0:
            raise SchedulingInPastError(
                f"cannot schedule {delay:.6f}s in the past (now={self.now:.6f})"
            )
        return self.schedule_at(self.now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SchedulingInPastError(
                f"cannot schedule at t={time:.6f} (now={self.now:.6f})"
            )
        handle = EventHandle(time, self._seq, callback, args, label=label)
        handle._on_cancel = self._on_cancel_hook
        self._seq += 1
        self._scheduled += 1
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def call_soon(
        self, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` at the current instant (after pending
        same-time events)."""
        return self.schedule(0.0, callback, *args, label=label)

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Move a pending event to absolute virtual time ``time``.

        The handle keeps its callback and args; only the firing time
        changes.  A reschedule to a *different* time re-sequences the
        event behind its new same-instant peers, as if freshly
        scheduled now; a same-time reschedule is a no-op that keeps
        the event's original FIFO position.  Three cost tiers:

        * unchanged time: no heap traffic at all (and no re-sequencing);
        * later time: the existing heap entry is left in place and
          recycled when it surfaces (one lazy push, no cancel);
        * earlier time: one push; the old entry is dropped lazily.

        Raises :class:`SimulationError` if the handle already fired or
        was cancelled -- callers own their handle lifecycle.
        """
        if time < self.now:
            raise SchedulingInPastError(
                f"cannot reschedule to t={time:.6f} (now={self.now:.6f})"
            )
        if not handle.pending:
            raise SimulationError(
                f"cannot reschedule {handle!r}: event is not pending"
            )
        self._reschedules += 1
        if time == handle.time:
            self._reschedule_reuses += 1
            return handle
        entry = handle._entry
        handle.seq = self._seq
        self._seq += 1
        handle.time = time
        if entry is not None and time >= entry[0]:
            # Deferred: the entry already in the heap pops no later
            # than the new time; recycle it when it surfaces.
            self._reschedule_reuses += 1
        else:
            # Moved earlier than the resident entry: a fresh entry must
            # carry the handle.  Re-point ``_entry`` *before* counting
            # the old entry dead -- a compaction triggered by the
            # counter bump classifies entries by comparing against
            # ``_entry``, and must not mistake the orphan for the
            # representative.
            handle._entry = (time, handle.seq)
            heapq.heappush(self._heap, (time, handle.seq, handle))
            if entry is not None:
                self._dead_in_heap += 1
                self._maybe_compact()
        return handle

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the heap is
        empty (simulation finished).  Dead entries (cancelled events,
        orphans of earlier reschedules) are discarded silently; entries
        of deferred reschedules are pushed back at their current key.
        """
        heap = self._heap
        while heap:
            time, seq, handle = heapq.heappop(heap)
            if not self._entry_fireable(time, seq, handle):
                self._discard_or_recycle(time, seq, handle)
                continue
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError(
                    f"event heap corrupted: event at t={time} "
                    f"popped at now={self.now}"
                )
            self.now = time
            handle._mark_fired()
            self._events_fired += 1
            self.trace_log.record_fired(time, handle.label)
            if self._profile:
                label = handle.label
                self._label_counts[label] = self._label_counts.get(label, 0) + 1
                start = _wallclock.perf_counter()
                handle.callback(*handle.args)
                self._label_wall[label] = (
                    self._label_wall.get(label, 0.0)
                    + (_wallclock.perf_counter() - start)
                )
            else:
                handle.callback(*handle.args)
            return True
        return False

    def note_fired(self, label: str) -> None:
        """Count one more event fired at ``now`` under ``label``, from a
        callback standing for several events due back to back: the
        count, engine trace record and profile label :meth:`step` gives
        a popped event."""
        self._events_fired += 1
        self.trace_log.record_fired(self.now, label)
        if self._profile:
            self._label_counts[label] = self._label_counts.get(label, 0) + 1

    def note_fired_many(self, count: int, labels: Iterable[str]) -> None:
        """:meth:`note_fired` for ``count`` events at once, labelled
        ``labels`` in order; the labels are iterated only when the trace
        log is observed or the engine profiles."""
        if self._profile or self.trace_log.observed:
            for label in labels:
                self.note_fired(label)
        else:
            self._events_fired += count

    def is_latest(self, handle: EventHandle) -> bool:
        """True when ``handle`` is pending and nothing was sequenced
        after it (scheduled, or moved by a reschedule): an event
        scheduled now at ``handle.time`` would fire right after it."""
        return handle.pending and handle.seq == self._seq - 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event heap drains, ``until`` is reached, or
        ``max_events`` heap entries have fired (a callback that counts
        more events through :meth:`note_fired` is one entry).

        ``until`` is an absolute virtual time; when given, the clock is
        advanced to exactly ``until`` even if no event fires there, so
        repeated ``run(until=...)`` calls behave like a paced replay.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while self._heap and not self._stopped:
                if until is not None and self._peek_time() > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                if self.step():
                    fired += 1
            # Advance the clock to ``until`` only when the heap truly
            # holds nothing before it -- if ``max_events`` (or stop())
            # halted the loop with events still pending before
            # ``until``, jumping the clock would strand those events in
            # the past and the next step() would see a corrupted heap.
            if (
                until is not None
                and not self._stopped
                and self.now < until
                and self._peek_time() > until
            ):
                self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot_at(
        self,
        time: float,
        path: str,
        root: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> EventHandle:
        """Schedule a checkpoint of ``root`` at absolute virtual time.

        ``root`` defaults to this simulation; pass the owning
        :class:`~repro.hadoop.cluster.HadoopCluster` to capture the
        whole cluster.  The write happens inside an ordinary event, so
        repeated ``run(until=...)`` paced replays hit it exactly; the
        snapshot event's own trace record lands *before* the write and
        is therefore part of the checkpoint -- a restored run's
        TraceLog digest stays comparable with the original's.
        """
        from repro.checkpoint.core import SnapshotEvent

        return self.schedule_at(
            time,
            SnapshotEvent(self if root is None else root, path, meta),
            label="checkpoint.snapshot",
        )

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle with a live-only heap.

        Dead entries (cancelled handles, orphans of earlier-move
        reschedules) are filtered out without mutating the running
        simulation, and deferred representatives are emitted at their
        *current* desired key -- exactly what :meth:`_compact` does,
        but on a copy.  The restored engine is never mid-:meth:`run`.
        """
        live = []
        for time, seq, handle in self._heap:
            entry = handle._entry
            if entry is None or entry[0] != time or entry[1] != seq:
                continue
            if handle.cancelled:
                continue
            live.append((handle.time, handle.seq, handle))
        heapq.heapify(live)
        state = dict(self.__dict__)
        state["_heap"] = live
        state["_dead_in_heap"] = 0
        state["_running"] = False
        state["_stopped"] = False
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # Re-point every representative at its (possibly recycled) heap
        # key: __getstate__ emits one entry per live handle but cannot
        # touch the handles of the simulation it copied from.
        for time, seq, handle in self._heap:
            handle._entry = (time, seq)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _peek_time(self) -> float:
        heap = self._heap
        while heap:
            time, seq, handle = heap[0]
            if self._entry_fireable(time, seq, handle):
                return time
            heapq.heappop(heap)
            self._discard_or_recycle(time, seq, handle)
        return float("inf")

    # ------------------------------------------------------------------
    # Heap-entry protocol
    #
    # A pending handle is represented by exactly one entry, recorded in
    # ``handle._entry``; everything else in the heap is an orphan of an
    # earlier-move reschedule or the residue of a cancel/fire.  The two
    # helpers below are the single definition of that protocol; step(),
    # _peek_time() and _compact() all classify through it.
    # ------------------------------------------------------------------

    @staticmethod
    def _entry_fireable(time: float, seq: int, handle: EventHandle) -> bool:
        """True when a heap entry is live at its desired key: it is the
        handle's representative, not cancelled, and not deferred."""
        entry = handle._entry
        return (
            entry is not None
            and entry[0] == time
            and entry[1] == seq
            and time == handle.time
            and seq == handle.seq
            and not handle.cancelled
        )

    def _discard_or_recycle(self, time: float, seq: int, handle: EventHandle) -> None:
        """Settle a popped non-fireable entry: drop dead weight (with
        its counter) or re-push a deferred representative at the
        handle's current desired key."""
        entry = handle._entry
        if entry is None or entry[0] != time or entry[1] != seq:
            # orphan of an earlier move, or residue of a fired handle
            self._dead_in_heap -= 1
        elif handle.cancelled:
            self._dead_in_heap -= 1
            handle._entry = None
        else:
            # deferred reschedule: recycle the entry at the new key
            handle._entry = (handle.time, handle.seq)
            heapq.heappush(self._heap, (handle.time, handle.seq, handle))

    # ------------------------------------------------------------------
    # Dead-entry bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Called by :meth:`EventHandle.cancel`.  Entries stay in the
        heap when their handle is cancelled, so the counter tracks the
        dead weight; once more than half the heap is dead it is rebuilt
        without them (heap order is preserved by re-heapifying on the
        same ``(time, seq)`` keys)."""
        self._dead_in_heap += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            len(self._heap) >= self.COMPACTION_MIN_SIZE
            and self._dead_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry from the heap in one pass.

        Entries of deferred reschedules are rebuilt at their current
        desired key, so the compacted heap holds exactly one live entry
        per pending handle."""
        live = []
        for time, seq, handle in self._heap:
            entry = handle._entry
            if entry is None or entry[0] != time or entry[1] != seq:
                continue
            if handle.cancelled:
                handle._entry = None
                continue
            handle._entry = (handle.time, handle.seq)
            live.append((handle.time, handle.seq, handle))
        self._heap = live
        heapq.heapify(self._heap)
        self._dead_in_heap = 0
        self._compactions += 1

    @property
    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events still in the heap."""
        return len(self._heap) - self._dead_in_heap

    @property
    def heap_size(self) -> int:
        """Raw heap length, dead entries included (introspection for
        the compaction tests and benchmarks)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times the heap was rebuilt to shed dead entries."""
        return self._compactions

    @property
    def events_fired(self) -> int:
        """Total number of events fired since construction."""
        return self._events_fired

    @property
    def events_scheduled(self) -> int:
        """Total :meth:`schedule_at` calls since construction (the
        event-churn counter the resource-model tests assert on)."""
        return self._scheduled

    @property
    def reschedules(self) -> int:
        """Total :meth:`reschedule` calls since construction."""
        return self._reschedules

    @property
    def reschedule_reuses(self) -> int:
        """Reschedules that reused the resident heap entry (same-time
        no-ops plus deferred moves) instead of pushing a fresh one."""
        return self._reschedule_reuses

    @property
    def profile_enabled(self) -> bool:
        """True when per-label event attribution is being collected."""
        return self._profile

    @property
    def label_counts(self) -> Dict[str, int]:
        """Fired events per label (profiling only; deterministic)."""
        return dict(self._label_counts)

    @property
    def label_wall(self) -> Dict[str, float]:
        """Wall seconds inside callbacks per label (profiling only;
        machine-dependent -- never compare across hosts)."""
        return dict(self._label_wall)

    @property
    def idle(self) -> bool:
        """True when no events remain."""
        return self.pending_events == 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Simulation(now={self.now:.3f}, pending={self.pending_events}, "
            f"fired={self._events_fired})"
        )
