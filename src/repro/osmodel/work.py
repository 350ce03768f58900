"""Work plans and the engine that executes them.

A Hadoop task attempt is modelled as a :class:`WorkPlan`: an ordered
list of :class:`WorkItem` steps (JVM start-up, memory allocation,
parsing the input split, re-reading allocated state, committing
output).  The :class:`WorkEngine` executes the plan on behalf of one
:class:`~repro.osmodel.process.OSProcess`, and is the point where the
paper's preemption primitive bites:

* **suspension** pauses the current item exactly mid-flight (remaining
  work is settled to the instant the stop lands);
* **resumption** first charges the page-in cost of any memory the
  process lost to swap while stopped, then continues the item from
  where it paused;
* **progress** is reported as a weighted fraction of plan completion,
  and watchers can request a callback at the exact instant progress
  crosses a threshold -- this is how the experiment harness launches
  ``th`` at exactly r% of ``tl``.
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import OutOfMemoryError, SimulationError
from repro.sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.osmodel.kernel import NodeKernel
    from repro.osmodel.process import OSProcess
    from repro.osmodel.resources import Claim


class WorkItem(abc.ABC):
    """One step of a work plan.

    ``weight`` is the item's share of the task's reported progress;
    Hadoop reports map progress as the fraction of input consumed, so
    plans give the input-processing item weight 1.0 and bookkeeping
    items weight 0.

    The hierarchy declares ``__slots__`` throughout: scale replays
    build one plan (4-6 items) per task attempt, and the per-instance
    dict is the bulk of each item's footprint.
    """

    __slots__ = ("label", "weight", "started", "finished")

    #: the resource claim serving the item; only rate-backed items
    #: (:class:`RateWorkItem`) ever hold one
    claim: Optional["Claim"] = None

    def __init__(self, label: str, weight: float = 0.0):
        self.label = label
        self.weight = weight
        self.started = False
        self.finished = False

    @abc.abstractmethod
    def begin(self, engine: "WorkEngine") -> None:
        """Start executing (first time only)."""

    @abc.abstractmethod
    def pause(self, engine: "WorkEngine") -> None:
        """Stop mid-flight, settling partial progress."""

    @abc.abstractmethod
    def resume(self, engine: "WorkEngine") -> None:
        """Continue after a pause."""

    @abc.abstractmethod
    def abort(self, engine: "WorkEngine") -> None:
        """Cancel outright (process killed)."""

    @abc.abstractmethod
    def fraction_done(self, engine: "WorkEngine") -> float:
        """Fraction of this item completed, settled to now."""

    @abc.abstractmethod
    def schedule_crossing(
        self, engine: "WorkEngine", fraction: float, callback: Callable[[], None]
    ) -> None:
        """Arrange ``callback`` at the exact moment this item's local
        progress crosses ``fraction`` (item must be active)."""

    def _finish(self, engine: "WorkEngine") -> None:
        self.finished = True
        engine._item_finished(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(label={self.label!r})"


class SleepItem(WorkItem):
    """A fixed-duration step (JVM start-up, framework bookkeeping)."""

    __slots__ = ("duration", "remaining", "_since", "_event", "_crossings")

    def __init__(self, duration: float, label: str = "sleep", weight: float = 0.0):
        super().__init__(label, weight)
        if duration < 0:
            raise SimulationError("sleep duration may not be negative")
        self.duration = duration
        self.remaining = duration
        self._since: Optional[float] = None
        self._event: Optional[EventHandle] = None
        # (fraction, callback, EventHandle-or-None, fired) mutable records
        self._crossings: List[list] = []

    def begin(self, engine: "WorkEngine") -> None:
        self.started = True
        self._arm(engine)

    def _arm(self, engine: "WorkEngine") -> None:
        self._since = engine.sim.now
        self._event = engine.sim.schedule(
            self.remaining, self._finish, engine, label=f"work.sleep:{self.label}"
        )
        self._arm_crossings(engine)

    def _settle(self, engine: "WorkEngine") -> None:
        if self._since is not None:
            self.remaining = max(0.0, self.remaining - (engine.sim.now - self._since))
            self._since = None

    def pause(self, engine: "WorkEngine") -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
        for crossing in self._crossings:
            if crossing[2] is not None:
                crossing[2].cancel()
                crossing[2] = None
        self._settle(engine)

    def resume(self, engine: "WorkEngine") -> None:
        self._arm(engine)

    def abort(self, engine: "WorkEngine") -> None:
        self.pause(engine)

    def fraction_done(self, engine: "WorkEngine") -> float:
        if self.duration <= 0:
            return 1.0
        remaining = self.remaining
        if self._since is not None:
            remaining = max(0.0, remaining - (engine.sim.now - self._since))
        return max(0.0, min(1.0, 1.0 - remaining / self.duration))

    def schedule_crossing(
        self, engine: "WorkEngine", fraction: float, callback: Callable[[], None]
    ) -> None:
        crossing = [fraction, callback, None, False]
        self._crossings.append(crossing)
        self._arm_crossings(engine)

    def _arm_crossings(self, engine: "WorkEngine") -> None:
        """(Re)schedule crossing events against the live countdown."""
        done = self.fraction_done(engine)
        for crossing in self._crossings:
            fraction, callback, event, fired = crossing
            if fired:
                continue
            if event is not None:
                event.cancel()
                crossing[2] = None
            if done >= fraction:
                crossing[3] = True
                engine.sim.call_soon(callback, label=f"work.crossing:{self.label}")
                continue
            if self._since is None:
                continue  # paused; re-armed on resume
            delay = (fraction - done) * self.duration
            crossing[2] = engine.sim.schedule(
                delay,
                self._fire_crossing,
                crossing,
                label=f"work.crossing:{self.label}",
            )

    def _fire_crossing(self, crossing: list) -> None:
        if crossing[3]:
            return
        crossing[3] = True
        crossing[2] = None
        crossing[1]()


class RateWorkItem(WorkItem):
    """Base for items backed by a processor-shared resource claim.

    Subclasses choose the :class:`~repro.osmodel.resources.RateResource`
    drawn from; pause/resume/abort and progress crossings all ride the
    claim API, so the virtual-time model's O(log n) state changes apply
    to every rate-backed step uniformly.
    """

    __slots__ = ("units", "claim")

    def __init__(self, units: float, label: str, weight: float):
        super().__init__(label, weight)
        if units < 0:
            raise SimulationError("work units may not be negative")
        self.units = units
        self.claim: Optional["Claim"] = None

    @abc.abstractmethod
    def _resource(self, engine: "WorkEngine"):
        """The RateResource this item draws from."""

    def begin(self, engine: "WorkEngine") -> None:
        self.started = True
        if self.units <= 0:
            engine.sim.call_soon(self._finish, engine, label=f"work.zero:{self.label}")
            return
        resource = self._resource(engine)
        self.claim = resource.create(
            self.units,
            functools.partial(self._finish, engine),
            label=self.label,
            owner=engine.process,
        )
        resource.activate(self.claim)

    def pause(self, engine: "WorkEngine") -> None:
        if self.claim is not None:
            self.claim.resource.pause(self.claim)

    def resume(self, engine: "WorkEngine") -> None:
        if self.claim is not None:
            self.claim.resource.activate(self.claim)

    def abort(self, engine: "WorkEngine") -> None:
        if self.claim is not None:
            self.claim.resource.cancel(self.claim)

    def fraction_done(self, engine: "WorkEngine") -> float:
        if self.claim is None:
            return 1.0 if self.finished else 0.0
        return self.claim.fraction_done()

    def schedule_crossing(
        self, engine: "WorkEngine", fraction: float, callback: Callable[[], None]
    ) -> None:
        if self.claim is None:
            engine.sim.call_soon(callback, label=f"work.crossing:{self.label}")
            return
        remaining_at = self.units * (1.0 - fraction)
        self.claim.add_milestone(remaining_at, callback)


class CpuWorkItem(RateWorkItem):
    """CPU-bound work, expressed in core-seconds.

    The synthetic mappers of the paper "read and parse the randomly
    generated input"; parsing dominates, so the map phase is modelled
    as CPU work at ``bytes / parse_rate`` core-seconds, with the bytes
    streamed from disk entering the page cache as the work progresses
    (``reads_bytes``).
    """

    __slots__ = ("reads_bytes", "_cached_fraction")

    def __init__(
        self,
        core_seconds: float,
        label: str = "cpu",
        weight: float = 0.0,
        reads_bytes: int = 0,
    ):
        super().__init__(core_seconds, label, weight)
        self.reads_bytes = reads_bytes
        self._cached_fraction = 0.0

    @classmethod
    def for_bytes(
        cls,
        nbytes: int,
        parse_rate: float,
        label: str = "cpu",
        weight: float = 0.0,
        reads_input: bool = True,
    ) -> "CpuWorkItem":
        """Build from an input size and a parse rate (bytes/second/core)."""
        if parse_rate <= 0:
            raise SimulationError("parse_rate must be positive")
        return cls(
            core_seconds=nbytes / parse_rate,
            label=label,
            weight=weight,
            reads_bytes=nbytes if reads_input else 0,
        )

    def _resource(self, engine: "WorkEngine"):
        return engine.kernel.cpu

    def account_cache(self, engine: "WorkEngine") -> None:
        """Feed freshly-read input bytes into the page cache.

        Called at pauses, milestones and completion; granular enough
        because suspension is the only moment the cache level matters.
        """
        if self.reads_bytes <= 0:
            return
        fraction = self.fraction_done(engine)
        delta = fraction - self._cached_fraction
        if delta > 0:
            engine.kernel.vmm.cache_file_read(int(delta * self.reads_bytes))
            engine.process.image.touch(engine.sim.now)
            self._cached_fraction = fraction

    def pause(self, engine: "WorkEngine") -> None:
        # Sync the resource's virtual clock first so the cache
        # accounting and the pause read one settled instant.
        if self.claim is not None:
            self.claim.resource.settle()
        self.account_cache(engine)
        super().pause(engine)

    def _finish(self, engine: "WorkEngine") -> None:
        self.account_cache(engine)
        super()._finish(engine)


class DiskWriteItem(RateWorkItem):
    """Sequential write of output data (commit phase)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int, label: str = "write", weight: float = 0.0):
        super().__init__(float(nbytes), label, weight)
        self.nbytes = nbytes

    def _resource(self, engine: "WorkEngine"):
        return engine.kernel.disk.write_stream


class DiskReadItem(RateWorkItem):
    """Sequential read of input data that is I/O-bound (no parsing)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int, label: str = "read", weight: float = 0.0):
        super().__init__(float(nbytes), label, weight)
        self.nbytes = nbytes

    def _resource(self, engine: "WorkEngine"):
        return engine.kernel.disk.read_stream

    def _finish(self, engine: "WorkEngine") -> None:
        engine.kernel.vmm.cache_file_read(self.nbytes)
        super()._finish(engine)


class MemAllocItem(SleepItem):
    """Allocate and dirty ``nbytes`` of anonymous memory.

    The paper's memory-hungry tasks "allocate memory and ... the OS
    marks pages as dirty, by writing random values to all memory at
    task startup".  The item's duration is the memset time plus any
    direct-reclaim cost the kernel charges (evicting the page cache is
    free; paging a suspended task out to swap is not -- that is
    exactly the overhead Figure 4 measures).
    """

    __slots__ = ("nbytes", "reclaim_cost")

    def __init__(self, nbytes: int, label: str = "alloc", weight: float = 0.0):
        # Duration is computed lazily in begin(), when the reclaim cost
        # is known; initialise with a placeholder.
        super().__init__(0.0, label, weight)
        self.nbytes = nbytes
        self.reclaim_cost = 0.0

    def begin(self, engine: "WorkEngine") -> None:
        try:
            charge = engine.kernel.charge_allocation(engine.process, self.nbytes)
        except OutOfMemoryError as exc:
            engine.kernel.oom_kill(engine.process, why=str(exc))
            return
        self.reclaim_cost = charge.reclaim_time
        self.duration = charge.total_time
        self.remaining = self.duration
        super().begin(engine)


class MemTouchItem(SleepItem):
    """Re-read the whole allocated image (task finalisation).

    Memory-hungry tasks read their state back before completing; if
    any of it was swapped out while suspended the page-in cost lands
    here (unless it was already charged at resume time).
    """

    __slots__ = ("fault_cost",)

    def __init__(self, label: str = "touch", weight: float = 0.0):
        super().__init__(0.0, label, weight)
        self.fault_cost = 0.0

    def begin(self, engine: "WorkEngine") -> None:
        process = engine.process
        try:
            fault = engine.kernel.vmm.fault_in(process)
        except OutOfMemoryError as exc:
            engine.kernel.oom_kill(process, why=str(exc))
            return
        self.fault_cost = fault.time_cost
        read_time = process.image.resident / engine.kernel.config.mem_read_bw
        self.duration = read_time + fault.time_cost
        self.remaining = self.duration
        process.image.touch(engine.sim.now)
        super().begin(engine)


class WorkPlan:
    """An ordered list of work items with progress weights."""

    def __init__(self, items: List[WorkItem]):
        self.items = list(items)
        self.total_weight = sum(item.weight for item in self.items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WorkPlan({[item.label for item in self.items]})"


class WorkEngine:
    """Executes a :class:`WorkPlan` for one process.

    The engine is installed as ``process.engine``; the process's
    signal machinery calls :meth:`pause`/:meth:`resume`/:meth:`abort`,
    and the engine calls ``process.exit_normally()`` when the plan
    completes.
    """

    def __init__(self, process: "OSProcess", plan: WorkPlan):
        self.process = process
        self.kernel: "NodeKernel" = process.kernel
        self.sim = self.kernel.sim
        self.plan = plan
        self.index = 0
        self.started = False
        self.completed = False
        self.paused = False
        self._completed_weight = 0.0
        self._watchers: List[tuple] = []  # (fraction, callback, [fired])
        self._pending_resume: Optional[EventHandle] = None
        self.fault_in_seconds = 0.0
        self._aborted_progress: Optional[float] = None
        process.engine = self

    # -- lifecycle -------------------------------------------------------------

    @property
    def current_item(self) -> Optional[WorkItem]:
        """The item in flight, or None before start / after completion."""
        if self.completed or self.index >= len(self.plan.items):
            return None
        return self.plan.items[self.index]

    def start(self) -> None:
        """Begin executing the plan."""
        if self.started:
            raise SimulationError("work engine already started")
        self.started = True
        self._begin_current()

    def _begin_current(self) -> None:
        item = self.current_item
        if item is None:
            self._complete()
            return
        item.begin(self)
        self._arm_watchers()

    def _item_finished(self, item: WorkItem) -> None:
        if self.completed:
            return
        self._completed_weight += item.weight
        self.index += 1
        if self.paused:
            # Finished exactly as a pause landed; stay put.
            return
        if self.index >= len(self.plan.items):
            self._complete()
        else:
            self._begin_current()

    def _complete(self) -> None:
        self.completed = True
        self._fire_watchers_at_completion()
        self.process.exit_normally()

    # -- preemption hooks --------------------------------------------------------

    def pause(self) -> None:
        """Suspend execution (stop signal landed)."""
        if self.paused or self.completed:
            return
        self.paused = True
        if self._pending_resume is not None:
            self._pending_resume.cancel()
            self._pending_resume = None
        item = self.current_item
        if item is not None and item.started and not item.finished:
            item.pause(self)

    def resume(self) -> None:
        """Continue execution (SIGCONT landed).

        If the process lost pages to swap while stopped, the page-in
        cost is charged as a delay before work continues -- the
        "possible overhead due to page-out/page-in cycles" of the
        paper's Section IV.
        """
        if not self.paused or self.completed:
            return
        self.paused = False
        try:
            fault = self.kernel.vmm.fault_in(self.process)
        except OutOfMemoryError as exc:
            # The node cannot hold the faulting-in image: the OOM
            # killer reaps the resuming process (RAM + swap are over-
            # committed past Section III-A's constraint).
            self.kernel.oom_kill(self.process, why=str(exc))
            return
        self.fault_in_seconds += fault.time_cost
        if fault.time_cost > 0:
            self._pending_resume = self.sim.schedule(
                fault.time_cost,
                self._resume_items,
                label=f"work.faultin:{self.process.name}",
            )
        else:
            self._resume_items()

    def _resume_items(self) -> None:
        self._pending_resume = None
        if self.paused or self.completed:
            return
        item = self.current_item
        if item is None:
            self._complete()
        elif not item.started:
            self._begin_current()
        elif not item.finished:
            item.resume(self)
            self._arm_watchers()

    def abort(self) -> None:
        """Cancel execution permanently (process died).

        The progress reached at the instant of death is preserved so
        the JobTracker can account the work a kill discards.
        """
        if self.completed:
            return
        self._aborted_progress = self.progress()
        if self._pending_resume is not None:
            self._pending_resume.cancel()
            self._pending_resume = None
        item = self.current_item
        if item is not None and item.started and not item.finished:
            item.abort(self)
        self.completed = True

    # -- progress ------------------------------------------------------------------

    def progress(self) -> float:
        """Weighted plan progress in [0, 1], settled to now.

        An item served by an active claim is evaluated inline against
        its resource's virtual clock S: the item's fraction is
        ``1 - max(0, vfinish - S(now)) / initial``, clamped to [0, 1],
        with the very float operations, in the same order, that
        :meth:`Claim.fraction_done` and
        :meth:`RateResource._virtual_now` perform (each conditional
        below returns what the ``max``/``min`` it replaces returns).
        Other items (sleeps, paused or aborted claims) answer through
        :meth:`WorkItem.fraction_done`.
        """
        if self._aborted_progress is not None:
            return self._aborted_progress
        plan = self.plan
        total = plan.total_weight
        if total <= 0:
            if not plan.items:
                return 1.0
            return self.index / len(plan.items)
        done = self._completed_weight
        items = plan.items
        index = self.index
        if not self.completed and index < len(items):
            item = items[index]
            weight = item.weight
            if item.started and not item.finished and weight > 0:
                claim = item.claim
                if claim is None or not claim.active or claim.initial <= 0:
                    done += weight * item.fraction_done(self)
                else:
                    resource = claim.resource
                    vnow = resource._vtime
                    elapsed = resource.sim.now - resource._vtime_at
                    if elapsed > 0:  # the active claim is being served
                        vnow = vnow + resource.rate_per_claim() * elapsed
                    left = claim._vfinish - vnow
                    fraction = 1.0 - (left if left > 0.0 else 0.0) / claim.initial
                    fraction = fraction if fraction < 1.0 else 1.0
                    done += weight * (fraction if fraction > 0.0 else 0.0)
        done = done / total
        done = done if done < 1.0 else 1.0
        return done if done > 0.0 else 0.0

    def when_progress(self, fraction: float, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` at the exact instant :meth:`progress`
        first reaches ``fraction``.

        Fires immediately if already past; fires at plan completion at
        the latest.
        """
        fraction = max(0.0, min(1.0, fraction))
        if self.progress() >= fraction or self.completed:
            self.sim.call_soon(callback, label="work.watcher")
            return
        watcher = [fraction, callback, False]
        self._watchers.append(watcher)
        self._arm_watchers()

    def _arm_watchers(self) -> None:
        """Register crossings that land inside the current item."""
        item = self.current_item
        if item is None or not item.started or item.finished:
            return
        total = self.plan.total_weight
        if total <= 0 or item.weight <= 0:
            return
        for watcher in self._watchers:
            fraction, callback, armed = watcher
            if armed:
                continue
            start_progress = self._completed_weight / total
            end_progress = (self._completed_weight + item.weight) / total
            if start_progress <= fraction <= end_progress:
                local = (fraction * total - self._completed_weight) / item.weight
                watcher[2] = True
                item.schedule_crossing(self, local, callback)

    def _fire_watchers_at_completion(self) -> None:
        for watcher in self._watchers:
            fraction, callback, armed = watcher
            if not armed:
                watcher[2] = True
                self.sim.call_soon(callback, label="work.watcher")
