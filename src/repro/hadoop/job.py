"""Jobs-in-progress: JobTracker-side job lifecycle.

Hadoop 1 jobs pass through PREP (waiting for the job *setup task* to
run) before their maps become schedulable, and run a job *cleanup
task* after the last map finishes.  Both bookkeeping tasks occupy a
slot, which is part of the per-job overhead visible in the paper's
makespan numbers.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import UnknownTaskError
from repro.hadoop.counters import Counters
from repro.hadoop.states import TipState
from repro.hadoop.task import TaskInProgress, TipRole
from repro.workloads.jobspec import JobSpec, TaskSpec

class JobState(enum.Enum):
    """Job lifecycle states (Hadoop 1 vocabulary)."""

    PREP = "PREP"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    KILLED = "KILLED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change."""
        return self in (JobState.SUCCEEDED, JobState.KILLED, JobState.FAILED)


def _aux_spec(name: str) -> TaskSpec:
    """Spec for a setup/cleanup attempt: a JVM that does no real work."""
    return TaskSpec(input_bytes=0, output_bytes=0, name=name)


class JobInProgress:
    """One submitted job and its tasks."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        submit_time: float,
        run_setup_cleanup: bool = True,
    ):
        self.job_id = job_id
        self.spec = spec
        self.submit_time = submit_time
        self.priority = spec.priority
        self.state = JobState.PREP
        self.run_setup_cleanup = run_setup_cleanup
        self.tips: List[TaskInProgress] = [
            TaskInProgress(
                self,
                i,
                task_spec,
                TipRole.MAP if task_spec.kind.value == "map" else TipRole.REDUCE,
            )
            for i, task_spec in enumerate(spec.tasks)
        ]
        self.setup_tip: Optional[TaskInProgress] = None
        self.cleanup_tip: Optional[TaskInProgress] = None
        if run_setup_cleanup:
            self.setup_tip = TaskInProgress(self, 0, _aux_spec("setup"), TipRole.JOB_SETUP)
            self.cleanup_tip = TaskInProgress(
                self, 0, _aux_spec("cleanup"), TipRole.JOB_CLEANUP
            )
        else:
            self.state = JobState.RUNNING
        #: callback(job, kind) fired on hot-state changes -- kind
        #: ``"size"`` when a tip's progress moved (the SRPT sort key is
        #: stale), ``"sched"`` when the has-schedulable-tips verdict may
        #: have moved and ``"aux"`` when the pending-setup/cleanup
        #: verdict may have moved; the JobTracker's standing job index
        #: uses it to repair itself instead of rebuilding
        self.observer = None
        self.launch_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: aggregated counters of all terminal attempts
        self.counters = Counters()
        #: completed work tips, maintained by the tips themselves so
        #: :attr:`work_complete` is O(1) per heartbeat instead of a
        #: scan of every tip
        self._completed_work_tips = 0
        #: cached [tip for tip in tips if tip.schedulable]; invalidated
        #: by the tips' state machine so the per-heartbeat scheduler
        #: scans cost O(1) for the (vast majority of) jobs whose tips
        #: did not change state since the last heartbeat
        self._schedulable_cache: Optional[List[TaskInProgress]] = None
        #: cached serial seconds of work left (the HFSP sort key);
        #: recomputed -- by the exact same summation -- only after a
        #: tip reported progress, so values are bit-identical to a
        #: fresh scan
        self._remaining_work = 0.0
        self._remaining_dirty = True
        #: cached :meth:`pending_aux_tip` verdict: the JobTracker asks
        #: every live job on every heartbeat, but the answer only moves
        #: on tip/job state transitions and work-tip completions
        self._aux_cache: Optional[TaskInProgress] = None
        self._aux_dirty = True

    # -- lookup --------------------------------------------------------------

    def all_tips(self) -> List[TaskInProgress]:
        """Work tips plus any setup/cleanup tips."""
        extras = [t for t in (self.setup_tip, self.cleanup_tip) if t is not None]
        return self.tips + extras

    def tip(self, tip_id: str) -> TaskInProgress:
        """Find a TIP by id."""
        for candidate in self.all_tips():
            if candidate.tip_id == tip_id:
                return candidate
        raise UnknownTaskError(f"{tip_id} not in job {self.job_id}")

    # -- scheduling views -----------------------------------------------------

    @property
    def setup_pending(self) -> bool:
        """True when the setup task still needs to be launched."""
        return (
            self.state is JobState.PREP
            and self.setup_tip is not None
            and self.setup_tip.schedulable
        )

    @property
    def cleanup_pending(self) -> bool:
        """True when all work is done and cleanup needs launching."""
        return (
            self.state is JobState.RUNNING
            and self.cleanup_tip is not None
            and self.cleanup_tip.schedulable
            and self.work_complete
        )

    def note_work_tip_completed(self, delta: int) -> None:
        """A work tip completed (+1) or had its output invalidated
        (-1); called from the tip state machine."""
        self._completed_work_tips += delta
        self._aux_dirty = True
        if self.observer is not None:
            self.observer(self, "aux")

    def note_tip_progress(self) -> None:
        """A tip's reported progress changed; the remaining-size
        aggregate must be re-derived before its next read."""
        self._remaining_dirty = True
        if self.observer is not None:
            self.observer(self, "size")

    def note_tip_state_changed(
        self,
        old: "TipState",
        new: "TipState",
        tip: Optional[TaskInProgress] = None,
    ) -> None:
        """Tip state-machine hook: drop caches the transition touches."""
        self._aux_dirty = True
        if self._schedulable_cache is not None and (
            old is TipState.UNASSIGNED or new is TipState.UNASSIGNED
        ):
            self._schedulable_cache = None
        # Only setup/cleanup tip transitions can move the pending-aux
        # verdict through this hook (work-tip completions and job
        # lifecycle changes notify separately), so the observer is
        # spared the noise of every work-tip launch and suspend.
        if self.observer is not None and tip is not None:
            if tip.is_aux:
                self.observer(self, "aux")
            elif old is TipState.UNASSIGNED or new is TipState.UNASSIGNED:
                # Work-tip transitions into or out of UNASSIGNED are
                # exactly the ones that can change whether this job has
                # schedulable tips (the scheduler's candidate filter).
                self.observer(self, "sched")

    def pending_aux_tip(self) -> Optional[TaskInProgress]:
        """The setup or cleanup tip awaiting launch right now, if any.

        Equivalent to checking :attr:`setup_pending` then
        :attr:`cleanup_pending`, cached because the JobTracker polls
        every live job per heartbeat and the verdict only moves on
        state transitions (every mover marks ``_aux_dirty``).
        """
        if self._aux_dirty:
            if self.setup_pending:
                self._aux_cache = self.setup_tip
            elif self.cleanup_pending:
                self._aux_cache = self.cleanup_tip
            else:
                self._aux_cache = None
            self._aux_dirty = False
        return self._aux_cache

    def remaining_work_seconds(self) -> float:
        """Serial seconds of work left across all tips (size-based
        schedulers read this on every heartbeat for every live job)."""
        if self._remaining_dirty:
            # Always summed in tips order, so cached values stay
            # bit-identical to a fresh scan.
            remaining = 0.0
            for tip in self.tips:
                p = tip.progress
                if p < 1.0:
                    remaining += tip.full_seconds * (1.0 - p)
            self._remaining_work = remaining
            self._remaining_dirty = False
        return self._remaining_work

    @property
    def work_complete(self) -> bool:
        """True when every work tip succeeded."""
        return self._completed_work_tips >= len(self.tips)

    def schedulable_tips(self) -> List[TaskInProgress]:
        """Work tips the scheduler may launch right now.

        Returns the cached list; callers iterate but must not mutate.
        """
        if self.state is not JobState.RUNNING:
            return []
        tips = self._schedulable_cache
        if tips is None:
            tips = self._schedulable_cache = [
                tip for tip in self.tips if tip.state is TipState.UNASSIGNED
            ]
        return tips

    def running_tips(self) -> List[TaskInProgress]:
        """Work tips with an active (running or suspended) attempt."""
        return [t for t in self.tips if t.state.active]

    def progress(self) -> float:
        """Mean progress over work tips."""
        if not self.tips:
            return 1.0
        return sum(tip.progress for tip in self.tips) / len(self.tips)

    # -- lifecycle events -------------------------------------------------------

    def on_setup_done(self, now: float) -> None:
        """Setup task finished: maps may launch."""
        if self.state is JobState.PREP:
            self.state = JobState.RUNNING
            self.launch_time = now
            self._aux_dirty = True
            if self.observer is not None:
                self.observer(self, "aux")
                # PREP -> RUNNING turns schedulable_tips() from [] to
                # the unassigned work tips: the job becomes a scheduler
                # candidate.
                self.observer(self, "sched")

    def maybe_finish(self, now: float) -> bool:
        """Complete the job if all work (and cleanup) is done.

        Returns True when the job just transitioned to SUCCEEDED.
        """
        if self.state.terminal:
            return False
        if not self.work_complete:
            return False
        if self.cleanup_tip is not None and not self.cleanup_tip.complete:
            return False
        self.state = JobState.SUCCEEDED
        self.finish_time = now
        self._aux_dirty = True
        return True

    def kill(self, now: float) -> None:
        """Mark the whole job killed (tips are killed by the JobTracker)."""
        if not self.state.terminal:
            self.state = JobState.KILLED
            self.finish_time = now
            self._aux_dirty = True

    def mark_failed(self, now: float) -> None:
        """A task exhausted its retry cap: the whole job fails
        (Hadoop's ``mapred.map.max.attempts`` semantics)."""
        if not self.state.terminal:
            self.state = JobState.FAILED
            self.finish_time = now
            self._aux_dirty = True

    # -- metrics -------------------------------------------------------------------

    @property
    def sojourn_time(self) -> Optional[float]:
        """Submission-to-completion time -- the paper's metric for th."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def wasted_seconds(self) -> float:
        """Work discarded by kill-style preemption across all tips."""
        return sum(t.wasted_seconds for t in self.tips)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"JobInProgress({self.job_id}, {self.state.value}, tips={len(self.tips)})"
