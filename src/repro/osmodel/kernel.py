"""Node kernel facade.

One :class:`NodeKernel` per simulated machine ties together the CPU,
the disk, the virtual memory manager and the process table, and offers
the small syscall-like surface the Hadoop layer uses:

* :meth:`spawn` / :meth:`signal` / :meth:`reap` -- process lifecycle
  and POSIX signalling;
* :meth:`charge_allocation` -- memory allocation with direct-reclaim
  cost accounting;
* :meth:`read_file` / :meth:`write_file` -- streaming disk I/O
  through the page cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import NoSuchProcessError
from repro.osmodel.config import NodeConfig
from repro.osmodel.disk import DiskDevice
from repro.osmodel.process import ExitReason, OSProcess, ProcessState
from repro.osmodel.resources import Claim, CpuResource
from repro.osmodel.signals import Signal
from repro.osmodel.vmm import MemoryHeadroom, VirtualMemoryManager
from repro.sim.engine import Simulation
from repro.units import page_align


@dataclass(slots=True)
class AllocationCharge:
    """Time cost of one memory allocation."""

    nbytes: int
    touch_time: float
    reclaim_time: float
    swapped_out: int

    @property
    def total_time(self) -> float:
        """Seconds the allocating process is busy/stalled."""
        return self.touch_time + self.reclaim_time


class SimClock:
    """A picklable ``now()`` callable bound to one simulation.

    Components that only need the current virtual time (e.g. the VMM)
    hold one of these instead of a ``lambda: sim.now`` closure, so the
    whole object graph survives checkpoint pickling.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: Simulation):
        self.sim = sim

    def __call__(self) -> float:
        return self.sim.now


class NodeKernel:
    """The operating system of one simulated node."""

    def __init__(self, sim: Simulation, config: Optional[NodeConfig] = None):
        self.sim = sim
        self.config = config or NodeConfig()
        self.cpu = CpuResource(sim, self.config.cores, name=f"{self.config.hostname}.cpu")
        self.disk = DiskDevice(sim, self.config, name=f"{self.config.hostname}.disk")
        self.vmm = VirtualMemoryManager(
            self.config,
            self.disk,
            live_processes=self.live_processes,
            now=SimClock(sim),
        )
        #: pid -> process, live processes only (:meth:`reap` deletes)
        self._processes: Dict[int, OSProcess] = {}
        self._next_pid = 1000
        self.signals_sent = 0
        #: processes reaped by the OOM killer (RAM + swap exhausted)
        self.oom_kills = 0
        #: the cluster's network fabric, attached by
        #: :class:`repro.hadoop.cluster.HadoopCluster` when one is
        #: configured; None keeps network-free behaviour (shuffle and
        #: remote reads fall back to local disk stand-ins)
        self.fabric = None

    # -- process table -----------------------------------------------------

    def live_processes(self) -> List[OSProcess]:
        """All processes that are not dead, in pid order.

        The table holds live processes only (:meth:`reap` removes the
        dead), so this is a plain copy of its values.
        """
        return list(self._processes.values())

    def process(self, pid: int) -> OSProcess:
        """Look up a live process by pid."""
        proc = self._processes.get(pid)
        if proc is None:
            raise NoSuchProcessError(f"no such process: pid {pid}")
        return proc

    def spawn(self, name: str) -> OSProcess:
        """Create a new process in the RUNNING state."""
        pid = self._next_pid
        self._next_pid += 1
        proc = OSProcess(self, pid, name)
        self._processes[pid] = proc
        self.trace("os.spawn", pid=pid, name=name)
        return proc

    def signal(self, pid: int, sig: Signal) -> None:
        """Deliver a POSIX signal to a live process."""
        proc = self.process(pid)
        self.signals_sent += 1
        self.trace("os.signal", pid=pid, sig=sig.value, name=proc.name)
        proc.deliver(sig)

    def reap(self, proc: OSProcess) -> None:
        """Release a dead process's resources and drop it from the
        process table (called by the process)."""
        self.vmm.release_process(proc)
        del self._processes[proc.pid]
        self.trace(
            "os.exit",
            pid=proc.pid,
            name=proc.name,
            reason=proc.exit_reason.value if proc.exit_reason else "?",
        )

    def oom_kill(self, proc: OSProcess, why: str = "") -> None:
        """The OOM killer fires: reap ``proc`` with ``ExitReason.OOM``.

        The model charges the failed allocation to the *requesting*
        process (malloc-failure semantics): it is the deterministic
        choice, and in the memory-oversubscribed replays the requester
        is the memory-hungry task whose demand broke Section III-A's
        constraint.  Callers catch
        :class:`~repro.errors.OutOfMemoryError` from the allocation
        paths and route it here instead of letting it unwind the event
        loop.
        """
        self.oom_kills += 1
        self.trace("os.oom-kill", pid=proc.pid, name=proc.name, why=why)
        proc.die_oom()

    def note_process_stopped(self, proc: OSProcess) -> None:
        """Bookkeeping hook invoked when a process enters STOPPED."""
        self.trace("os.stopped", pid=proc.pid, name=proc.name)

    def note_process_resumed(self, proc: OSProcess) -> None:
        """Bookkeeping hook invoked when a process leaves STOPPED."""
        self.trace("os.resumed", pid=proc.pid, name=proc.name)

    # -- device speed ---------------------------------------------------------

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) every device on the node to ``factor``
        of nominal speed.

        The single entry point for slow-node faults and thermal
        models: with the virtual-time resource core each device is one
        O(1) rate update (advance the virtual clock, re-aim one armed
        event) -- no per-claim rescheduling anywhere.
        """
        self.cpu.set_speed_factor(factor)
        self.disk.read_stream.set_speed_factor(factor)
        self.disk.write_stream.set_speed_factor(factor)
        self.trace("os.speed", factor=factor)

    # -- memory ---------------------------------------------------------------

    def charge_allocation(
        self, proc: OSProcess, nbytes: int, dirty: bool = True
    ) -> AllocationCharge:
        """Allocate ``nbytes`` for ``proc``; returns the time to charge.

        Allocation proceeds in chunks so the reclaimer sees the
        allocator's own resident set grow (large bursts increasingly
        self-swap, as in Figure 4).  Only the direct-reclaim share of
        the page-out I/O stalls the allocator; kswapd writes the rest
        back asynchronously.
        """
        nbytes = page_align(nbytes)
        chunk = page_align(self.config.alloc_chunk_bytes)
        remaining = nbytes
        reclaim_io = 0.0
        swapped_total = 0
        cache_freed = 0
        while remaining > 0:
            step = min(chunk, remaining)
            reclaim = self.vmm.make_room(proc, step)
            proc.image.allocate(step, dirty=dirty, now=self.sim.now)
            reclaim_io += reclaim.time_cost
            swapped_total += reclaim.swapped_out
            cache_freed += reclaim.freed_from_cache
            remaining -= step
        touch_time = nbytes / self.config.mem_touch_bw if dirty else 0.0
        stall = reclaim_io * self.config.direct_reclaim_fraction
        if swapped_total > 0:
            self.trace(
                "os.pageout",
                pid=proc.pid,
                swapped=swapped_total,
                cache_freed=cache_freed,
                cost=round(stall, 3),
            )
        return AllocationCharge(
            nbytes=nbytes,
            touch_time=touch_time,
            reclaim_time=stall,
            swapped_out=swapped_total,
        )

    def release_memory(self, proc: OSProcess, nbytes: int) -> int:
        """Free part of a process's image (GC returning heap to the OS)."""
        freed = proc.image.free(nbytes, self.sim.now)
        self.trace("os.free", pid=proc.pid, freed=freed)
        return freed

    # -- file I/O ------------------------------------------------------------

    def read_file(
        self, nbytes: int, on_done: Callable[[], None], label: str = "read", owner=None
    ) -> Claim:
        """Stream ``nbytes`` from disk; fills the page cache on completion."""
        finish = functools.partial(self._finish_read, nbytes, on_done)
        return self.disk.stream_read(nbytes, finish, label=label, owner=owner)

    def _finish_read(self, nbytes: int, on_done: Callable[[], None]) -> None:
        self.vmm.cache_file_read(nbytes)
        on_done()

    def write_file(
        self, nbytes: int, on_done: Callable[[], None], label: str = "write", owner=None
    ) -> Claim:
        """Stream ``nbytes`` to disk."""
        return self.disk.stream_write(nbytes, on_done, label=label, owner=owner)

    # -- introspection ----------------------------------------------------------

    def memory_headroom(self) -> MemoryHeadroom:
        """One-pass memory/swap headroom snapshot (the suspend-admission
        gate reads this)."""
        return self.vmm.headroom()

    def suspended_bytes(self) -> int:
        """Resident + swapped bytes of the stopped processes, in one
        pass over the live table: the suspended total of Section
        III-A's constraint, which every heartbeat reports."""
        total = 0
        for proc in self._processes.values():
            if proc.stopped:
                total += proc.image.virtual
        return total

    def memory_summary(self) -> Dict[str, int]:
        """Snapshot of RAM/cache/swap usage (bytes)."""
        return {
            "usable_ram": self.config.usable_ram_bytes,
            "free_ram": self.vmm.free_ram(),
            "process_resident": self.vmm.used_by_processes(),
            "page_cache": self.vmm.page_cache.size,
            "swap_used": self.vmm.swap.used,
        }

    def stopped_processes(self) -> List[OSProcess]:
        """All processes currently in the STOPPED state."""
        return [p for p in self.live_processes() if p.state is ProcessState.STOPPED]

    def trace(self, label: str, **fields) -> None:
        """Record a trace event tagged with this node's hostname."""
        self.sim.trace_log.record(
            self.sim.now, label, host=self.config.hostname, **fields
        )

    def check_invariants(self) -> None:
        """Cross-module consistency checks used by the test suite."""
        self.vmm.check_invariants()
        for proc in self.live_processes():
            proc.image.check_invariants()
            swapped_accounted = self.vmm.swap.swapped_bytes(proc.pid)
            if swapped_accounted != proc.image.swapped:
                raise NoSuchProcessError(
                    f"swap accounting mismatch for pid {proc.pid}: "
                    f"area={swapped_accounted} image={proc.image.swapped}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"NodeKernel(host={self.config.hostname!r}, "
            f"procs={len(self.live_processes())})"
        )


__all__ = ["NodeKernel", "AllocationCharge", "ExitReason"]
