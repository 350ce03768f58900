"""The paper's dummy scheduler.

    "We factor out the role of task eviction policies implemented by
    the scheduler ... by building a new scheduling component for
    Hadoop -- a dummy scheduler -- which dictates task eviction
    according to static configuration files.  This allows to specify,
    using a series of simple triggers, which jobs/tasks are run in the
    cluster and which are preempted.  In addition to executing jobs
    and preempting tasks with our suspend/resume primitives, the dummy
    scheduler also allows using the kill primitive and to wait, for
    the purpose of a comparative analysis."

Assignment is priority-then-FIFO (so the high-priority job wins any
freed slot) restricted to an optional allowlist.  The triggers are the
experiment harness's own: an exact progress watch
(:meth:`~repro.hadoop.cluster.HadoopCluster.when_job_progress`) submits
the high-priority job and preempts, and a job-completion callback
(:meth:`~repro.hadoop.jobtracker.JobTracker.on_job_complete`) restores.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.hadoop.job import JobInProgress
from repro.hadoop.task import TaskInProgress
from repro.schedulers.fifo import FifoScheduler


class DummyScheduler(FifoScheduler):
    """Trigger-driven comparative-analysis scheduler."""

    def __init__(self, allowlist: Optional[Set[str]] = None):
        super().__init__()
        #: job spec names allowed to launch tasks (None = all)
        self.allowlist = allowlist
        #: job spec names currently frozen (their tips are not assigned)
        self.frozen: Set[str] = set()

    def allow(self, job_name: str) -> None:
        """Add a job to the allowlist (if one is configured)."""
        if self.allowlist is not None:
            self.allowlist.add(job_name)

    def freeze(self, job_name: str) -> None:
        """Stop assigning new tasks of ``job_name`` (tasks already
        running are unaffected -- use the preemption API for those)."""
        self.frozen.add(job_name)

    def unfreeze(self, job_name: str) -> None:
        """Allow assignment of ``job_name`` again."""
        self.frozen.discard(job_name)

    def _eligible(self, job: JobInProgress) -> bool:
        name = job.spec.name
        if name in self.frozen:
            return False
        if self.allowlist is not None and name not in self.allowlist:
            return False
        return True

    def serves_job(self, job: JobInProgress) -> bool:
        """Frozen / non-allowlisted jobs get no slots -- not even for
        speculative backups."""
        return self._eligible(job)

    def ordered_jobs(self) -> List[JobInProgress]:
        return [job for job in super().ordered_jobs() if self._eligible(job)]

    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        return super().assign_tasks(tracker, free_map_slots, free_reduce_slots)
