"""Deadline-based scheduling (EDF with preemption).

"In deadline scheduling, preemption can be used to make sure that jobs
that are close to the deadline are run as soon as possible."

Jobs carrying a ``deadline_seconds`` are ordered earliest-deadline-
first; jobs without a deadline run in the background.  When a
deadline-carrying job's *slack* (time to deadline minus remaining
work) goes negative and it has pending tasks but no slots, the
scheduler preempts background or later-deadline tasks with the
configured primitive.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hadoop.job import JobInProgress
from repro.hadoop.task import TaskInProgress
from repro.schedulers.base import TaskScheduler


class DeadlineScheduler(TaskScheduler):
    """Earliest-deadline-first with slack-triggered preemption."""

    def __init__(
        self,
        primitive_factory=None,
        check_interval: float = 5.0,
        slack_margin: float = 10.0,
    ):
        super().__init__()
        self.primitive_factory = primitive_factory
        self.check_interval = check_interval
        #: extra seconds of safety subtracted from the slack
        self.slack_margin = slack_margin

    def attach_cluster(self, cluster) -> None:
        """Enable preemption and the periodic slack check."""
        super().attach_cluster(cluster)
        if self.primitive is not None:
            self._schedule_check()

    def _schedule_check(self) -> None:
        self.jobtracker.sim.schedule(
            self.check_interval, self._slack_check, label="deadline.check"
        )

    # -- deadline bookkeeping ------------------------------------------------------

    def absolute_deadline(self, job: JobInProgress) -> Optional[float]:
        """Deadline as absolute simulated time, or None."""
        if job.spec.deadline_seconds is None:
            return None
        return job.submit_time + job.spec.deadline_seconds

    def remaining_work(self, job: JobInProgress) -> float:
        """Serial seconds of work left."""
        return sum(
            (tip.spec.input_bytes / tip.spec.parse_rate)
            * (1.0 - min(1.0, tip.progress))
            for tip in job.tips
        )

    def slack(self, job: JobInProgress, now: float) -> Optional[float]:
        """Seconds to spare before the deadline is at risk."""
        deadline = self.absolute_deadline(job)
        if deadline is None:
            return None
        return (deadline - now) - self.remaining_work(job) - self.slack_margin

    def ordered_jobs(self) -> List[JobInProgress]:
        """EDF; deadline-less jobs last, FIFO among themselves."""
        jobs = self._candidate_jobs()
        with_deadline = [j for j in jobs if j.spec.deadline_seconds is not None]
        without = [j for j in jobs if j.spec.deadline_seconds is None]
        with_deadline.sort(key=lambda j: (self.absolute_deadline(j), j.job_id))
        without.sort(key=lambda j: (j.submit_time, j.job_id))
        return with_deadline + without

    # -- assignment -----------------------------------------------------------------

    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        assigned: List[TaskInProgress] = []
        for job in self.ordered_jobs():
            if free_map_slots <= 0 and free_reduce_slots <= 0:
                break
            chosen = self._take_schedulable(
                job, free_map_slots, free_reduce_slots, tracker=tracker
            )
            for tip in chosen:
                if tip.kind.value == "map":
                    free_map_slots -= 1
                else:
                    free_reduce_slots -= 1
            assigned.extend(chosen)
        return assigned

    # -- slack-triggered preemption --------------------------------------------------------

    def _slack_check(self) -> None:
        self._schedule_check()
        now = self.jobtracker.sim.now
        self._restore_suspended(self._has_free_map_slot)
        for job in self.ordered_jobs():
            job_slack = self.slack(job, now)
            if job_slack is None or job_slack >= 0:
                continue
            pending = self.job_pending_demand(job)
            if pending == 0:
                continue
            self._preempt_for(job, pending)

    def _preempt_for(self, urgent: JobInProgress, demand: int) -> None:
        from repro.preemption.eviction import collect_candidates

        urgent_deadline = self.absolute_deadline(urgent)

        def later_or_none(c) -> bool:
            other = self.absolute_deadline(c.tip.job)
            return other is None or (
                urgent_deadline is not None and other > urgent_deadline
            )

        candidates = [
            c
            for c in collect_candidates(
                self.cluster, protect_jobs={urgent.spec.name}
            )
            if later_or_none(c)
        ]
        # Deadline-less victims first, then latest deadlines.
        candidates.sort(
            key=lambda c: (
                self.absolute_deadline(c.tip.job) is not None,
                -(self.absolute_deadline(c.tip.job) or 0.0),
                c.tip_id,
            )
        )
        self._preempt_victims(candidates[:demand])
