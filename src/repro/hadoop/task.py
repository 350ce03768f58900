"""Tasks-in-progress: the JobTracker's view of one logical task.

A TIP owns the attempt history and the paper's extended state machine
(``MUST_SUSPEND``/``SUSPENDED``/``MUST_RESUME`` alongside the stock
states).  Transitions are validated against
:data:`repro.hadoop.states.TIP_TRANSITIONS`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Set

from repro.errors import TaskStateError
from repro.hadoop.states import TipState, check_tip_transition
from repro.workloads.jobspec import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.job import JobInProgress


class TipRole(enum.Enum):
    """Real work or per-job framework bookkeeping."""

    MAP = "m"
    REDUCE = "r"
    JOB_SETUP = "js"
    JOB_CLEANUP = "jc"


class TaskInProgress:
    """One logical task of a job.

    ``__slots__`` because scale replays create one TIP per task of
    every job in the workload and schedulers touch them on every
    heartbeat; dropping the per-instance dict measurably shrinks both
    footprint and attribute-access time.
    """

    __slots__ = (
        "job",
        "index",
        "spec",
        "role",
        "full_seconds",
        "tip_id",
        "state",
        "_tracker",
        "tracker_observer",
        "active_attempt_id",
        "attempt_ids",
        "next_attempt_number",
        "_progress",
        "finished_at",
        "first_launched_at",
        "last_launched_at",
        "wasted_seconds",
        "failed_attempt_count",
        "failed_on",
        "speculative_attempt_id",
        "speculative_tracker",
        "speculative_launched_at",
        "output_lost_count",
        "suspended_seconds",
        "_suspended_at",
        "directive_issued_at",
        "directive_sent_at",
        "locality_skipped_at",
    )

    def __init__(
        self,
        job: "JobInProgress",
        index: int,
        spec: TaskSpec,
        role: TipRole = TipRole.MAP,
    ):
        self.job = job
        self.index = index
        self.spec = spec
        self.role = role
        #: single-core seconds of the full task body (static: derived
        #: from the immutable base spec); schedulers read this on every
        #: heartbeat, so it is computed once
        self.full_seconds = spec.input_bytes / spec.parse_rate
        self.tip_id = f"task_{job.job_id}_{role.value}_{index:06d}"
        self.state = TipState.UNASSIGNED
        self._tracker: Optional[str] = None
        #: callback(tip, old_host, new_host) fired on every tracker
        #: (re)binding; the JobTracker uses it to keep its per-tracker
        #: tip index exact without rescanning all tips per heartbeat
        self.tracker_observer = None
        self.active_attempt_id: Optional[str] = None
        self.attempt_ids: List[str] = []
        self.next_attempt_number = 0
        self._progress = 0.0
        self.finished_at: Optional[float] = None
        self.first_launched_at: Optional[float] = None
        self.last_launched_at: Optional[float] = None
        #: seconds of work discarded by kill-style preemption
        self.wasted_seconds = 0.0
        #: attempts that ended in FAILED (counts toward max-attempts)
        self.failed_attempt_count = 0
        #: hosts where an attempt of this TIP failed (avoided on retry)
        self.failed_on: Set[str] = set()
        #: backup attempt launched by speculative execution, if any
        self.speculative_attempt_id: Optional[str] = None
        self.speculative_tracker: Optional[str] = None
        self.speculative_launched_at: Optional[float] = None
        #: how many times this TIP's completed output was lost with a
        #: dead tracker and had to be recomputed
        self.output_lost_count = 0
        #: wall time this TIP's current attempt spent suspended; the
        #: speculator excludes it from progress-rate runtimes so a
        #: resumed victim is not misread as a straggler
        self.suspended_seconds = 0.0
        self._suspended_at: Optional[float] = None
        #: when the user/scheduler issued the outstanding directive
        self.directive_issued_at: Optional[float] = None
        #: when the JobTracker last piggybacked it on a heartbeat
        self.directive_sent_at: Optional[float] = None
        #: when delay scheduling first skipped this tip on an off-rack
        #: slot offer; once the locality wait is exhausted the tip
        #: accepts any slot (see TaskScheduler.locality knob)
        self.locality_skipped_at: Optional[float] = None

    # -- tracker binding --------------------------------------------------------

    @property
    def tracker(self) -> Optional[str]:
        """Host currently running this TIP's active attempt (if any)."""
        return self._tracker

    @tracker.setter
    def tracker(self, host: Optional[str]) -> None:
        old = self._tracker
        if host == old:
            return
        self._tracker = host
        if self.tracker_observer is not None:
            self.tracker_observer(self, old, host)

    # -- progress ----------------------------------------------------------------

    @property
    def progress(self) -> float:
        """Fraction of the task body completed (last reported)."""
        return self._progress

    @progress.setter
    def progress(self, value: float) -> None:
        # Route through the job so its cached remaining-size aggregate
        # (the HFSP per-heartbeat sort key) knows to recompute.
        self._progress = value
        self.job.note_tip_progress()

    # -- state machine ----------------------------------------------------------

    def set_state(self, new: TipState) -> None:
        """Transition with validation."""
        check_tip_transition(self.state, new)
        old = self.state
        self.state = new
        self.job.note_tip_state_changed(old, new, self)

    @property
    def schedulable(self) -> bool:
        """True when the JobTracker may start a (new) attempt."""
        return self.state is TipState.UNASSIGNED

    def work_seconds(self, progress: float = 1.0) -> float:
        """Single-core seconds behind ``progress`` of this task's body.

        The one place the task-cost model lives: wasted-work accounting
        (kills, failures, node losses, speculation losers) all charge
        through here.
        """
        return progress * self.full_seconds

    @property
    def is_aux(self) -> bool:
        """True for job setup/cleanup bookkeeping tasks."""
        return self.role in (TipRole.JOB_SETUP, TipRole.JOB_CLEANUP)

    @property
    def complete(self) -> bool:
        """True once the task succeeded."""
        return self.state is TipState.SUCCEEDED

    # -- attempt management --------------------------------------------------------

    def new_attempt_id(self, tracker: str) -> str:
        """Allocate the next attempt id and bind the TIP to a tracker."""
        attempt_id = f"attempt_{self.tip_id}_{self.next_attempt_number}"
        self.next_attempt_number += 1
        self.attempt_ids.append(attempt_id)
        self.active_attempt_id = attempt_id
        self.tracker = tracker
        return attempt_id

    def mark_launched(self, now: float) -> None:
        """Record the (first) attempt launch; TIP becomes RUNNING."""
        if self.first_launched_at is None:
            self.first_launched_at = now
        self.last_launched_at = now
        self.suspended_seconds = 0.0
        self._suspended_at = None
        self.locality_skipped_at = None
        self.set_state(TipState.RUNNING)

    def mark_succeeded(self, now: float) -> None:
        """Attempt reported success."""
        self.set_state(TipState.SUCCEEDED)
        self.progress = 1.0
        self.finished_at = now
        self.active_attempt_id = None
        if self.role in (TipRole.MAP, TipRole.REDUCE):
            self.job.note_work_tip_completed(+1)

    # -- speculative execution ------------------------------------------------------

    @property
    def has_speculative(self) -> bool:
        """True while a backup attempt exists for this TIP."""
        return self.speculative_attempt_id is not None

    def new_speculative_attempt_id(
        self, tracker: str, now: Optional[float] = None
    ) -> str:
        """Allocate a backup attempt id without disturbing the primary."""
        attempt_id = f"attempt_{self.tip_id}_{self.next_attempt_number}"
        self.next_attempt_number += 1
        self.attempt_ids.append(attempt_id)
        self.speculative_attempt_id = attempt_id
        self.speculative_tracker = tracker
        self.speculative_launched_at = now
        return attempt_id

    def clear_speculative(self) -> None:
        """Forget the backup attempt (it finished or its node died)."""
        self.speculative_attempt_id = None
        self.speculative_tracker = None
        self.speculative_launched_at = None

    def promote_speculative(self) -> None:
        """The backup overtook the primary: it becomes the attempt of
        record (called just before :meth:`mark_succeeded`).

        The launch time and suspension total switch to the backup's so
        whole-life progress rates (the speculator's peer mean) describe
        the attempt that actually completed, not the replaced primary.
        """
        self.active_attempt_id = self.speculative_attempt_id
        self.tracker = self.speculative_tracker
        if self.speculative_launched_at is not None:
            self.last_launched_at = self.speculative_launched_at
            self.suspended_seconds = 0.0
            self._suspended_at = None
        self.clear_speculative()

    def mark_killed_attempt(self, progress_lost: float, reschedule: bool) -> None:
        """Attempt was killed; optionally requeue the TIP.

        ``progress_lost`` (fraction of the task) is converted to
        wasted work for the redundant-work accounting the paper's
        makespan metric surfaces.
        """
        self.wasted_seconds += self.work_seconds(progress_lost)
        self.active_attempt_id = None
        self.tracker = None
        self.progress = 0.0
        if self.state is not TipState.KILLED:
            self.set_state(TipState.KILLED)
        if reschedule:
            self.set_state(TipState.UNASSIGNED)

    def mark_failed_attempt(
        self, progress_lost: float, tracker: Optional[str]
    ) -> None:
        """Attempt failed (task error, not a kill); count it toward the
        retry cap and remember the host so retries avoid it.

        The retry-vs-fail-the-job decision is the JobTracker's
        (:meth:`~repro.hadoop.jobtracker.JobTracker._on_attempt_failed`
        checks the attempt cap); the discarded work is accounted like a
        kill.
        """
        self.wasted_seconds += self.work_seconds(progress_lost)
        self.failed_attempt_count += 1
        if tracker is not None:
            self.failed_on.add(tracker)
        self.active_attempt_id = None
        self.tracker = None
        self.progress = 0.0
        if self.state is not TipState.FAILED:
            self.set_state(TipState.FAILED)

    def mark_lost_tracker(self) -> None:
        """The tracker died; requeue (suspended image is lost too)."""
        if self.state.terminal:
            return
        self.active_attempt_id = None
        self.tracker = None
        self.progress = 0.0
        self.set_state(TipState.UNASSIGNED)

    def mark_output_lost(self) -> None:
        """A completed map's output died with its tracker; re-execute.

        Legal only from SUCCEEDED; the lost work is charged as wasted
        (the whole task body must be recomputed).
        """
        self.wasted_seconds += self.work_seconds()
        self.output_lost_count += 1
        self.progress = 0.0
        self.finished_at = None
        self.active_attempt_id = None
        self.tracker = None
        self.set_state(TipState.UNASSIGNED)
        if self.role in (TipRole.MAP, TipRole.REDUCE):
            self.job.note_work_tip_completed(-1)

    # -- preemption-side transitions -----------------------------------------------

    def request_suspend(self, now: float) -> None:
        """User/scheduler asked to suspend; legal only while RUNNING."""
        if self.state is not TipState.RUNNING:
            raise TaskStateError(
                f"cannot suspend {self.tip_id} in state {self.state.value}"
            )
        self.set_state(TipState.MUST_SUSPEND)
        self.directive_issued_at = now
        self.directive_sent_at = None

    def confirm_suspended(self, now: Optional[float] = None) -> None:
        """Heartbeat confirmed the stop landed."""
        self.set_state(TipState.SUSPENDED)
        self.directive_issued_at = None
        self.directive_sent_at = None
        self._suspended_at = now

    def request_resume(self, now: float) -> None:
        """User/scheduler asked to resume; legal only while SUSPENDED."""
        if self.state is not TipState.SUSPENDED:
            raise TaskStateError(
                f"cannot resume {self.tip_id} in state {self.state.value}"
            )
        self.set_state(TipState.MUST_RESUME)
        self.directive_issued_at = now
        self.directive_sent_at = None

    def confirm_resumed(self, now: Optional[float] = None) -> None:
        """Heartbeat confirmed the process is running again."""
        self.set_state(TipState.RUNNING)
        self.directive_issued_at = None
        self.directive_sent_at = None
        if now is not None and self._suspended_at is not None:
            self.suspended_seconds += now - self._suspended_at
        self._suspended_at = None

    def request_kill(self, now: float) -> None:
        """User/scheduler asked to kill the active attempt."""
        if self.state.terminal or self.state is TipState.UNASSIGNED:
            raise TaskStateError(
                f"cannot kill {self.tip_id} in state {self.state.value}"
            )
        self.set_state(TipState.MUST_KILL)
        self.directive_issued_at = now
        self.directive_sent_at = None

    @property
    def kind(self) -> TaskKind:
        """Map or reduce."""
        return self.spec.kind

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TaskInProgress({self.tip_id}, {self.state.value})"
