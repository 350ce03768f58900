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

from collections import defaultdict
from typing import Dict, List, Optional

from repro.hadoop.job import JobInProgress, JobState
from repro.hadoop.states import TipState
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
        """Running jobs grouped by their submitting user."""
        pools: Dict[str, List[JobInProgress]] = defaultdict(list)
        for job in self._candidate_jobs():
            pools[job.spec.user].append(job)
        return pools

    @staticmethod
    def _running_count(jobs: List[JobInProgress]) -> int:
        """Tips of ``jobs`` holding a slot (running, or not yet stopped)."""
        return sum(
            1
            for job in jobs
            for tip in job.tips
            if tip.state in (TipState.RUNNING, TipState.MUST_SUSPEND)
        )

    @staticmethod
    def _pending_count(jobs: List[JobInProgress]) -> int:
        """Tasks ``jobs`` want to run but cannot yet.

        Jobs still in PREP count their whole task list: the setup task
        is queued behind the busy slots, so the demand is real even
        though no work tip is schedulable yet.  Counting only
        ``schedulable_tips`` would let PREP pools starve silently.
        """
        return sum(
            len(job.tips) if job.state is JobState.PREP
            else len(job.schedulable_tips())
            for job in jobs
        )

    def fair_share(self) -> int:
        """Slots per pool-with-demand (at least 1)."""
        total = sum(t.map_slots for t in self.jobtracker.trackers.values())
        pools = [
            pool
            for pool, jobs in self._pools().items()
            if self._pending_count(jobs) + self._running_count(jobs) > 0
        ]
        if not pools:
            return total
        return max(1, total // len(pools))

    # -- assignment ----------------------------------------------------------------

    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        """Round-robin over pools ordered by deficit (running/share).

        Each pass gives every pool the first schedulable tip, not yet
        assigned, of its oldest job that has one fitting a free slot.
        Passes repeat until one places nothing or the slots run out.
        """
        assigned: List[TaskInProgress] = []
        share = self.fair_share()
        # Most-starved pool first.
        ordered = sorted(
            self._pools().items(),
            key=lambda kv: (self._running_count(kv[1]) / max(1, share), kv[0]),
        )
        taken = set()
        progress_made = True
        while progress_made and (free_map_slots > 0 or free_reduce_slots > 0):
            progress_made = False
            for _, jobs in ordered:
                if free_map_slots <= 0 and free_reduce_slots <= 0:
                    break
                tip = next(
                    (
                        t
                        for job in sorted(
                            jobs, key=lambda j: (j.submit_time, j.job_id)
                        )
                        for t in job.schedulable_tips()
                        if t.tip_id not in taken
                        and (
                            free_map_slots > 0
                            if t.kind.value == "map"
                            else free_reduce_slots > 0
                        )
                    ),
                    None,
                )
                if tip is None:
                    continue
                taken.add(tip.tip_id)
                if tip.kind.value == "map":
                    free_map_slots -= 1
                else:
                    free_reduce_slots -= 1
                assigned.append(tip)
                progress_made = True
        return assigned

    # -- preemption loop ----------------------------------------------------------------

    def _over_share_candidates(
        self, pools: Dict[str, List[JobInProgress]], starved: str, share: int
    ) -> list:
        """Eviction candidates for the ``starved`` pool: running tips
        of the other pools that hold more than their share."""
        from repro.preemption.eviction import collect_candidates

        protected = {job.spec.name for job in pools.get(starved, [])}
        over = {
            job.spec.name
            for name, jobs in pools.items()
            if name != starved and self._running_count(jobs) > share
            for job in jobs
        }
        return [
            c
            for c in collect_candidates(self.cluster, protect_jobs=protected)
            if c.tip.job.spec.name in over
        ]

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
            candidates = self._over_share_candidates(pools, pool, share)
            self._preempt_victims(self.eviction_policy.choose(candidates, deficit))
            self._starved_since[pool] = now  # rate-limit
