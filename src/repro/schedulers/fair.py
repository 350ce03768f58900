"""A simplified FAIR scheduler with preemption hooks.

"Job schedulers, like the Hadoop FAIR and Capacity schedulers, can use
preemption to warrant fairness: if a job starves due to long-running
tasks of another job, these latter may be preempted."

Jobs are grouped into pools by their submitting user; each pool with
demand receives an equal share of the cluster's map slots.  A pool
that stays below its share for longer than ``preemption_timeout``
while it has pending tasks triggers preemption of tasks from
over-share pools, using a pluggable
:class:`~repro.preemption.base.PreemptionPrimitive` and
:class:`~repro.preemption.eviction.EvictionPolicy` -- so the paper's
suspend/resume primitive slots straight into fair-share enforcement.

Simplifications versus Hadoop's FairScheduler: no per-pool weights or
minimum shares, no hierarchical pools, and suspended victims are
restored on the periodic check rather than via a dedicated event per
slot release.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hadoop.job import JobInProgress
from repro.hadoop.task import TaskInProgress
from repro.schedulers.base import TaskScheduler


class FairScheduler(TaskScheduler):
    """Equal-share pools with preemption."""

    def __init__(
        self,
        primitive_factory=None,
        eviction_policy=None,
        preemption_timeout: float = 20.0,
        check_interval: float = 5.0,
    ):
        super().__init__()
        self.primitive_factory = primitive_factory
        self.eviction_policy = eviction_policy
        self.preemption_timeout = preemption_timeout
        self.check_interval = check_interval
        #: pool -> earliest time it has been continuously starved
        self._starved_since: Dict[str, Optional[float]] = {}

    # -- wiring -------------------------------------------------------------

    def attach_cluster(self, cluster) -> None:
        """Enable preemption; without a primitive the scheduler still
        shares fairly but never preempts."""
        super().attach_cluster(cluster)
        if self.eviction_policy is None:
            from repro.preemption.eviction import ClosestToCompletionPolicy

            self.eviction_policy = ClosestToCompletionPolicy()
        self._schedule_check()

    def _schedule_check(self) -> None:
        self.jobtracker.sim.schedule(
            self.check_interval, self._periodic_check, label="fair.check"
        )

    # -- pools ------------------------------------------------------------------

    def _pools(self) -> Dict[str, List[JobInProgress]]:
        return self._group_jobs(lambda job: job.spec.user)

    def _pending_count(self, jobs: List[JobInProgress]) -> int:
        return sum(self.job_pending_demand(job) for job in jobs)

    def fair_share(self) -> int:
        """Slots per pool-with-demand (at least 1)."""
        pools = [
            pool
            for pool, jobs in self._pools().items()
            if self._pending_count(jobs) + self._running_count(jobs) > 0
        ]
        if not pools:
            return self._total_map_slots()
        return max(1, self._total_map_slots() // len(pools))

    # -- assignment ----------------------------------------------------------------

    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        """Round-robin over pools ordered by deficit (running/share)."""
        assigned: List[TaskInProgress] = []
        share = self.fair_share()
        # Most-starved pool first.
        ordered = sorted(
            self._pools().items(),
            key=lambda kv: (self._running_count(kv[1]) / max(1, share), kv[0]),
        )
        self._deal_slots(ordered, free_map_slots, free_reduce_slots, assigned)
        return assigned

    # -- preemption loop ----------------------------------------------------------------

    def _periodic_check(self) -> None:
        self._schedule_check()
        if self.primitive is None:
            return
        share = self.fair_share()
        pools = self._pools()
        # Resume what we suspended once its pool is under its share.
        self._restore_suspended(
            lambda tip: self._running_count(pools.get(tip.job.spec.user, []))
            < share
        )
        now = self.jobtracker.sim.now
        for pool, jobs in pools.items():
            running = self._running_count(jobs)
            pending = self._pending_count(jobs)
            if pending == 0 or running >= share:
                self._starved_since[pool] = None
                continue
            since = self._starved_since.get(pool)
            if since is None:
                self._starved_since[pool] = now
                continue
            if now - since < self.preemption_timeout:
                continue
            deficit = min(share - running, pending)
            candidates = self._over_quota_candidates(pools, pool, lambda _: share)
            self._preempt_victims(self.eviction_policy.choose(candidates, deficit))
            self._starved_since[pool] = now  # rate-limit
