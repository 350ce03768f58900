"""A simplified Capacity scheduler.

Queues own a fraction of the cluster's slots; jobs are routed to
queues by their submitting user (falling back to a default queue).  A
queue may borrow idle capacity from others (elasticity), and borrowed
slots can be reclaimed by preempting the borrower with a pluggable
primitive -- the second scheduler family the paper names as a
beneficiary of a good preemption primitive.  A suspended borrower
resumes once its own queue is back under its quota, or once its
tracker has an idle slot that no under-quota queue is waiting for.

Simplifications versus Hadoop's CapacityScheduler: two-level queues
only, no user limits within a queue, and reclamation is checked
periodically rather than per-heartbeat.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.hadoop.job import JobInProgress
from repro.hadoop.task import TaskInProgress
from repro.schedulers.base import TaskScheduler


class CapacityScheduler(TaskScheduler):
    """Fixed-share queues with elastic borrowing."""

    def __init__(
        self,
        queue_capacity: Optional[Dict[str, float]] = None,
        default_queue: str = "default",
        primitive_factory=None,
        reclaim_interval: float = 10.0,
    ):
        super().__init__()
        self.queue_capacity = queue_capacity or {default_queue: 1.0}
        total = sum(self.queue_capacity.values())
        if total <= 0 or total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"queue capacities must sum to (0, 1], got {total}"
            )
        self.default_queue = default_queue
        self.primitive_factory = primitive_factory
        self.reclaim_interval = reclaim_interval

    def attach_cluster(self, cluster) -> None:
        """Enable preemptive reclamation (optional)."""
        super().attach_cluster(cluster)
        if self.primitive is not None:
            self._schedule_reclaim()

    def _schedule_reclaim(self) -> None:
        self.jobtracker.sim.schedule(
            self.reclaim_interval, self._reclaim_check, label="capacity.reclaim"
        )

    # -- queue bookkeeping -----------------------------------------------------

    def queue_of(self, job: JobInProgress) -> str:
        """Route a job to its queue (user name, if it is a queue)."""
        if job.spec.user in self.queue_capacity:
            return job.spec.user
        return self.default_queue

    def queue_quota(self, queue: str) -> int:
        """Slots guaranteed to ``queue``."""
        fraction = self.queue_capacity.get(queue, 0.0)
        return max(1, int(round(fraction * self._total_map_slots())))

    def _queues(self) -> Dict[str, List[JobInProgress]]:
        return self._group_jobs(self.queue_of)

    # -- assignment -----------------------------------------------------------------

    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        """Serve under-quota queues first, then let queues borrow."""
        assigned: List[TaskInProgress] = []
        ordered = sorted(
            self._queues().items(),
            key=lambda kv: (
                self._running_count(kv[1]) / self.queue_quota(kv[0]),
                kv[0],
            ),
        )

        def under_quota(queue, jobs) -> bool:
            running = self._running_count(jobs) + sum(
                1 for t in assigned if self.queue_of(t.job) == queue
            )
            return running < self.queue_quota(queue)

        free = self._deal_slots(
            ordered, free_map_slots, free_reduce_slots, assigned, under_quota
        )
        self._deal_slots(ordered, *free, assigned)
        return assigned

    # -- reclamation --------------------------------------------------------------------

    def _reclaim_check(self) -> None:
        self._schedule_reclaim()
        from repro.preemption.eviction import FurthestFromCompletionPolicy

        queues = self._queues()

        def under_quota(queue: str) -> bool:
            return self._running_count(queues.get(queue, [])) < self.queue_quota(queue)

        def may_restore(tip: TaskInProgress) -> bool:
            queue = self.queue_of(tip.job)
            if under_quota(queue):
                return True
            # An idle slot that no under-quota queue is waiting for goes
            # to the borrow round, so the borrower may take it back.
            return self._has_free_map_slot(tip) and not any(
                under_quota(name) and any(map(self.job_pending_demand, jobs))
                for name, jobs in queues.items()
            )

        self._restore_suspended(may_restore)
        for queue, jobs in queues.items():
            quota = self.queue_quota(queue)
            running = self._running_count(jobs)
            pending = sum(self.job_pending_demand(job) for job in jobs)
            if pending == 0 or running >= quota:
                continue
            candidates = self._over_quota_candidates(
                queues, queue, self.queue_quota
            )
            self._preempt_victims(
                FurthestFromCompletionPolicy().choose(candidates, quota - running)
            )
