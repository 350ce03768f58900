"""The OS-assisted suspend/resume primitive -- the paper's contribution.

Suspension delivers ``SIGTSTP`` through the heartbeat machinery; the
task's state is "implicitly saved by the operating system, and kept in
memory.  If not enough physical memory is available for running tasks
at any moment, the OS paging mechanism saves the memory allocated to
the suspended tasks in the swap area."

Resumption delivers ``SIGCONT`` once the owning TaskTracker has a free
slot; pages lost to swap fault back in as the task continues.  The
primitive enforces the Section III-A safety constraint (suspended
memory must fit in swap) before suspending.
"""

from __future__ import annotations

from repro.errors import NotPreemptibleError
from repro.hadoop.states import TipState
from repro.hadoop.task import TaskInProgress
from repro.preemption.base import PreemptionPrimitive, PrimitiveName


class SuspendResumePrimitive(PreemptionPrimitive):
    """SIGTSTP to preempt, SIGCONT to restore."""

    name = PrimitiveName.SUSPEND

    def __init__(
        self,
        cluster,
        enforce_swap_capacity: bool = True,
    ):
        super().__init__(cluster)
        #: static capacity compare: victim + suspended vs the swap
        #: *device size* (coarse; see :meth:`_check_swap_capacity`).
        #: Dynamically-gated setups drop it; the per-tracker count cap
        #: (``HadoopConfig.max_suspended_per_tracker``) always holds.
        self.enforce_swap_capacity = enforce_swap_capacity

    def preempt(self, tip: TaskInProgress) -> None:
        """Mark the task MUST_SUSPEND; the TaskTracker stops it at the
        next heartbeat exchange."""
        self._require_running(tip)
        self._check_suspend_cap(tip)
        if self.enforce_swap_capacity:
            self._check_swap_capacity(tip)
        self.preempt_count += 1
        self.trace("suspend", tip=tip.tip_id, progress=round(tip.progress, 3))
        self.jobtracker.suspend_task(tip.tip_id)

    def restore(self, tip: TaskInProgress) -> None:
        """Mark the task MUST_RESUME; SIGCONT rides the next heartbeat
        that finds a free slot on the owning tracker."""
        self.restore_count += 1
        if tip.state is TipState.MUST_SUSPEND:
            # Restore requested before the stop even landed: the resume
            # directive will chase the suspend confirmation.
            self.cluster.sim.call_soon(self.restore, tip, label="preempt.re-restore")
            return
        if tip.state is not TipState.SUSPENDED:
            return  # completed in the meanwhile, or never suspended
        self.trace("resume", tip=tip.tip_id)
        self.jobtracker.resume_task(tip.tip_id)

    # -- safety -------------------------------------------------------------

    def _live_tracker(self, tip: TaskInProgress):
        tracker = self.cluster.trackers.get(tip.tracker or "")
        if tracker is None:
            raise NotPreemptibleError(f"{tip.tip_id} has no live tracker")
        return tracker

    def _check_suspend_cap(self, tip: TaskInProgress) -> None:
        """Per-tracker suspended-count cap
        (``mapred``-style ``max_suspended_per_tracker``)."""
        tracker = self._live_tracker(tip)
        if (
            len(tracker.suspended_attempts())
            >= tracker.config.max_suspended_per_tracker
        ):
            raise NotPreemptibleError(
                f"{tracker.host} already holds "
                f"{len(tracker.suspended_attempts())} suspended tasks "
                f"(max_suspended_per_tracker)"
            )

    def _check_swap_capacity(self, tip: TaskInProgress) -> None:
        """Section III-A: aggregate suspended memory must fit in swap.

        This is the *static* check: it compares against the swap
        device's capacity, not its live occupancy, so it neither sees
        pressure from running tasks nor admits safely on a nearly-full
        device.  Schedulers that manage the constraint dynamically use
        the swap-aware gate
        (:class:`repro.preemption.admission.SuspendAdmissionGate`) and
        build this primitive with ``enforce_swap_capacity=False``.
        """
        tracker = self._live_tracker(tip)
        attempt = self.attempt_of(tip)
        if attempt is None:
            raise NotPreemptibleError(f"{tip.tip_id} has no live attempt")
        vmm = tracker.kernel.vmm
        suspended_bytes = sum(
            a.resident_bytes() + a.current_swapped_bytes()
            for a in tracker.suspended_attempts()
        )
        need = attempt.resident_bytes() + suspended_bytes
        if need > vmm.swap.capacity:
            raise NotPreemptibleError(
                f"suspending {tip.tip_id} could need {need} bytes of swap "
                f"but only {vmm.swap.capacity} are configured"
            )
