"""Virtual memory manager: reclaim, swap-out, swap-in.

This module is the heart of the reproduction.  The paper's primitive
works *because* of three kernel behaviours, all modelled here:

1. **swappiness = 0**: the file-system cache is evicted before any
   process page, so light-weight suspended tasks stay entirely in RAM
   and suspend/resume costs nothing (Figure 2).
2. **suspended-first, clean-first reclaim**: when process pages must
   go, pages of stopped processes are evicted before those of running
   ones, and clean pages are dropped for free before dirty pages are
   written to swap (Section III-A).
3. **approximate LRU**: the clock-style scan over-evicts under
   pressure and leaks onto the cold pages of running processes, which
   is why Figure 4's "paged bytes" curve grows more than linearly and
   then saturates below the suspended task's full footprint.

All reclaim time is charged to the *requesting* process (direct
reclaim), which is how a memory-hungry ``th`` pays the page-out cost
of evicting a suspended ``tl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.errors import OutOfMemoryError
from repro.osmodel.config import NodeConfig
from repro.osmodel.disk import DiskDevice
from repro.osmodel.pagecache import PageCache
from repro.osmodel.swap import SwapArea
from repro.units import format_size, page_align

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.osmodel.process import OSProcess


@dataclass(slots=True)
class ReclaimResult:
    """Outcome of one :meth:`VirtualMemoryManager.make_room` call."""

    requested: int
    freed_from_cache: int = 0
    dropped_clean: int = 0
    swapped_out: int = 0
    time_cost: float = 0.0
    per_victim_swap: Dict[int, int] = field(default_factory=dict)

    @property
    def freed_total(self) -> int:
        """Total RAM bytes freed."""
        return self.freed_from_cache + self.dropped_clean + self.swapped_out


@dataclass(slots=True)
class FaultInResult:
    """Outcome of one :meth:`VirtualMemoryManager.fault_in` call."""

    paged_in: int = 0
    time_cost: float = 0.0
    reclaim: ReclaimResult | None = None


@dataclass(frozen=True, slots=True)
class MemoryHeadroom:
    """One node's memory/swap headroom, snapshotted in a single pass.

    This is the quantity Section III-A's constraint is stated over:
    the aggregate memory of running + suspended tasks must fit in
    RAM + swap.  The suspend-admission gate reads it before issuing
    SIGTSTP, so the constraint is actively managed instead of
    discovered as an OOM.  (Heartbeats carry only the suspended total,
    :meth:`repro.osmodel.kernel.NodeKernel.suspended_bytes`.)
    """

    #: RAM free without any reclaim (bytes)
    free_ram: int
    #: page-cache bytes the reclaimer could drop for free
    evictable_cache: int
    #: unused swap bytes
    free_swap: int
    #: resident bytes of runnable processes
    running_resident: int
    #: resident bytes of stopped (suspended) processes
    stopped_resident: int
    #: swapped bytes held by stopped processes
    stopped_swapped: int
    #: number of stopped processes
    stopped_count: int

    @property
    def suspend_budget(self) -> int:
        """Bytes of additional task memory the node can still absorb:
        free RAM, droppable cache, and unused swap."""
        return self.free_ram + self.evictable_cache + self.free_swap


class VirtualMemoryManager:
    """Owns the page cache, the swap area, and the reclaim policy."""

    def __init__(
        self,
        config: NodeConfig,
        disk: DiskDevice,
        live_processes: Callable[[], List["OSProcess"]],
        now: Callable[[], float],
    ):
        self.config = config
        self.disk = disk
        self._live_processes = live_processes
        self._now = now
        self.page_cache = PageCache(min_bytes=config.page_cache_min_bytes)
        self.swap = SwapArea(capacity=config.swap_bytes)
        self.reclaim_events = 0
        self.oom_events = 0

    # -- accounting -----------------------------------------------------------

    def used_by_processes(self) -> int:
        """Sum of all live processes' resident sets."""
        return sum(proc.image.resident for proc in self._live_processes())

    def free_ram(self) -> int:
        """RAM available without any reclaim."""
        return (
            self.config.usable_ram_bytes
            - self.used_by_processes()
            - self.page_cache.size
        )

    def memory_pressure(self) -> float:
        """Fraction of usable RAM in use (processes + cache)."""
        usable = max(1, self.config.usable_ram_bytes)
        return 1.0 - self.free_ram() / usable

    def headroom(self) -> MemoryHeadroom:
        """Snapshot the node's memory/swap headroom in one pass.

        The suspend-admission gate needs these totals, and a single
        walk over the (handful of) live processes replaces the
        per-attempt resident/swap sums the old swap-capacity check
        performed.
        """
        running = stopped = stopped_swapped = 0
        stopped_count = 0
        for proc in self._live_processes():
            if proc.stopped:
                stopped += proc.image.resident
                stopped_swapped += proc.image.swapped
                stopped_count += 1
            else:
                running += proc.image.resident
        free_ram = (
            self.config.usable_ram_bytes - running - stopped - self.page_cache.size
        )
        return MemoryHeadroom(
            free_ram=free_ram,
            evictable_cache=self.page_cache.evictable,
            free_swap=self.swap.free,
            running_resident=running,
            stopped_resident=stopped,
            stopped_swapped=stopped_swapped,
            stopped_count=stopped_count,
        )

    # -- page cache population --------------------------------------------------

    def cache_file_read(self, nbytes: int) -> int:
        """Record that ``nbytes`` of file data were read; cache what fits.

        The cache never triggers reclaim of process pages to grow
        (streaming reads simply bypass it when RAM is tight), so this
        is free of I/O cost.
        """
        return self.page_cache.insert(nbytes, room=self.free_ram())

    # -- reclaim ------------------------------------------------------------------

    def make_room(self, requester: "OSProcess", nbytes: int) -> ReclaimResult:
        """Ensure ``nbytes`` of RAM are free, evicting if necessary.

        Returns the reclaim breakdown including the synchronous time
        cost to charge the requester.  Raises
        :class:`~repro.errors.OutOfMemoryError` when RAM + swap cannot
        satisfy the demand.
        """
        nbytes = page_align(nbytes)
        result = ReclaimResult(requested=nbytes)
        demand = nbytes - self.free_ram()
        if demand <= 0:
            return result
        self.reclaim_events += 1

        demand = self._shrink_cache(demand, result)
        if demand <= 0:
            return result

        self._evict_process_pages(requester, demand, result)

        if self.free_ram() < nbytes:
            self.oom_events += 1
            raise OutOfMemoryError(
                f"cannot free {format_size(nbytes)} on {self.config.hostname}: "
                f"free={format_size(self.free_ram())} after reclaim",
                victim_pid=requester.pid,
            )
        return result

    def _shrink_cache(self, demand: int, result: ReclaimResult) -> int:
        """Evict file-cache pages per the swappiness policy.

        With swappiness = 0 the entire evictable cache is fair game
        before any process page.  With swappiness > 0 the kernel is
        only willing to take a proportional slice of the cache per
        reclaim round, pushing the remainder of the demand onto
        process pages (a deliberate simplification of the Linux
        active/inactive ratio machinery).
        """
        willing = self.page_cache.evictable
        if self.config.swappiness > 0:
            willing = int(willing * (100 - self.config.swappiness) / 100)
        freed = self.page_cache.shrink(min(demand, willing))
        result.freed_from_cache += freed
        return demand - freed

    def _evict_process_pages(
        self, requester: "OSProcess", demand: int, result: ReclaimResult
    ) -> None:
        """Evict process pages: suspended-first with an approximate-LRU
        leak onto running processes' cold pages."""
        stopped, running = self._victim_pools(requester)
        stopped_resident = sum(proc.image.resident for proc in stopped)
        running_cold = sum(
            max(0, proc.image.resident - self.config.working_set_protect_bytes)
            for proc in running
        )

        # Approximate-LRU inflation: the clock scan frees more than asked.
        pressure = demand / max(1, self.config.usable_ram_bytes)
        inflated = int(demand * (1.0 + self.config.lru_overshoot * pressure))

        # Leak share: the clock scan visits pools roughly proportionally
        # to their evictable sizes, damped by lru_scan_leak.
        leak = 0.0
        if running_cold > 0 and stopped_resident > 0:
            leak = self.config.lru_scan_leak * running_cold / (
                running_cold + stopped_resident
            )
        elif stopped_resident == 0:
            leak = 1.0

        target_running = int(inflated * leak)
        target_stopped = inflated - target_running

        freed_stopped = self._evict_from_pool(stopped, target_stopped, result, all_pages=True)
        shortfall = target_stopped - freed_stopped
        freed_running = self._evict_from_pool(
            running, target_running + max(0, shortfall), result, all_pages=False
        )
        # If the running pool came up short too, go back to stopped pages.
        shortfall = (target_running + max(0, shortfall)) - freed_running
        if shortfall > 0 and demand > result.freed_total - result.freed_from_cache:
            self._evict_from_pool(stopped, shortfall, result, all_pages=True)

    def _victim_pools(self, requester: "OSProcess"):
        """Order eviction victims.

        Pool 1: stopped processes, oldest stop first -- "pages from
        suspended processes are evicted before those from running
        ones".  Pool 2: running processes' pages beyond their
        working-set protection, other processes before the requester.
        """
        processes = self._live_processes()
        stopped = sorted(
            (p for p in processes if p.stopped),
            key=lambda p: (p.stopped_at if p.stopped_at is not None else 0.0),
        )
        running = sorted(
            (p for p in processes if not p.stopped),
            key=lambda p: (p.pid == requester.pid, p.image.last_touched),
        )
        return stopped, running

    def _evict_from_pool(
        self,
        pool: List["OSProcess"],
        target: int,
        result: ReclaimResult,
        all_pages: bool,
    ) -> int:
        """Take up to ``target`` bytes from the pool; returns bytes freed."""
        freed = 0
        for victim in pool:
            if freed >= target:
                break
            evictable = victim.image.resident
            if not all_pages:
                evictable = max(
                    0, evictable - self.config.working_set_protect_bytes
                )
            if evictable <= 0:
                continue
            want = min(target - freed, evictable)
            plan = victim.image.plan_pageout(want)
            swappable = min(plan.swap_dirty, self.swap.free)
            if swappable < plan.swap_dirty:
                plan.swap_dirty = swappable
            victim.image.apply_pageout(plan)
            if plan.swap_dirty > 0:
                self.swap.page_out(victim.pid, plan.swap_dirty)
                cost = self.disk.write_burst_cost(plan.swap_dirty)
                self.disk.account_burst(cost, write=True)
                result.time_cost += cost.total_time
                result.swapped_out += plan.swap_dirty
                result.per_victim_swap[victim.pid] = (
                    result.per_victim_swap.get(victim.pid, 0) + plan.swap_dirty
                )
            result.dropped_clean += plan.drop_clean
            freed += plan.total
        return freed

    # -- swap-in ---------------------------------------------------------------

    def fault_in(self, proc: "OSProcess") -> FaultInResult:
        """Fault every swapped page of ``proc`` back into RAM.

        Used when a suspended task resumes: the paper's model is that
        pages of a suspended process "are paged out and in at most
        once, respectively after suspension and resuming".  Faulting in
        may itself require reclaim (rare: only when memory is still
        tight after the preempting task finished).
        """
        nbytes = proc.image.swapped
        result = FaultInResult()
        if nbytes <= 0:
            return result
        reclaim = self.make_room(proc, nbytes)
        result.reclaim = reclaim
        result.time_cost += reclaim.time_cost * self.config.direct_reclaim_fraction
        paged = proc.image.page_in(nbytes, self._now())
        self.swap.page_in(proc.pid, paged)
        cost = self.disk.read_burst_cost(paged)
        self.disk.account_burst(cost, write=False)
        result.paged_in = paged
        # Swap readahead overlaps part of the transfer with compute;
        # only the synchronous share stalls the process.
        result.time_cost += cost.total_time * self.config.fault_in_sync_fraction
        return result

    # -- process exit -------------------------------------------------------------

    def release_process(self, proc: "OSProcess") -> None:
        """Free all RAM and swap held by a dead process."""
        self.swap.release(proc.pid)
        image = proc.image
        image.free(image.virtual, self._now())

    def check_invariants(self) -> None:
        """Cross-checks used by tests."""
        self.page_cache.check_invariants()
        self.swap.check_invariants()
        if self.free_ram() < 0:
            raise OutOfMemoryError(
                f"accounting error: free RAM negative ({self.free_ram()})"
            )
