"""Heartbeat protocol messages.

"Hadoop has a 'heartbeat' mechanism where, at fixed intervals and
every time a task finishes, TaskTrackers inform the JobTracker about
their state."  The JobTracker's answer piggybacks directives; the
paper adds :class:`SuspendTaskAction` and :class:`ResumeTaskAction`
alongside the existing launch/kill actions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Set

from repro.hadoop.states import AttemptState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.job import JobInProgress


class AttemptStatus(NamedTuple):
    """One attempt's status inside a heartbeat report.

    A tuple, so it is immutable and cheap to build: a busy tracker
    builds one per live attempt on every heartbeat.
    """

    attempt_id: str
    tip_id: str
    job_id: str
    state: AttemptState
    progress: float
    #: shuffle traffic a terminal (killed/failed) attempt discards;
    #: the JobTracker charges it to the wasted-network-bytes ledger
    discarded_network_bytes: int = 0
    #: True when a FAILED attempt died to the OOM killer; the
    #: JobTracker charges its loss to the oom-kill ledger cause
    oom_killed: bool = False


@dataclass(slots=True)
class HeartbeatReport:
    """TaskTracker -> JobTracker."""

    tracker: str
    sequence: int
    free_map_slots: int
    free_reduce_slots: int
    attempts: List[AttemptStatus] = field(default_factory=list)
    out_of_band: bool = False
    #: resident + swapped bytes of the node's suspended processes --
    #: the suspended total of Section III-A's constraint
    suspended_bytes: int = 0


class TrackerAction:
    """Base class for piggybacked directives."""

    __slots__ = ()

    def describe(self) -> str:
        """Short human-readable form for traces."""
        return type(self).__name__


@dataclass(slots=True)
class LaunchTaskAction(TrackerAction):
    """Start a new attempt of ``tip_id`` on the tracker."""

    tip_id: str
    attempt_id: str
    is_setup: bool = False
    is_cleanup: bool = False

    def describe(self) -> str:
        kind = "setup" if self.is_setup else "cleanup" if self.is_cleanup else "task"
        return f"launch[{kind}] {self.attempt_id}"


@dataclass(slots=True)
class KillTaskAction(TrackerAction):
    """SIGKILL an attempt (and run its cleanup attempt)."""

    attempt_id: str
    reason: str = ""

    def describe(self) -> str:
        return f"kill {self.attempt_id} ({self.reason})"


@dataclass(slots=True)
class SuspendTaskAction(TrackerAction):
    """SIGTSTP an attempt -- the paper's new directive."""

    attempt_id: str

    def describe(self) -> str:
        return f"suspend {self.attempt_id}"


@dataclass(slots=True)
class ResumeTaskAction(TrackerAction):
    """SIGCONT a suspended attempt -- the paper's new directive."""

    attempt_id: str

    def describe(self) -> str:
        return f"resume {self.attempt_id}"


@dataclass(slots=True)
class HeartbeatResponse:
    """JobTracker -> TaskTracker."""

    sequence: int
    actions: List[TrackerAction] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable action list."""
        return "; ".join(a.describe() for a in self.actions) or "<none>"


class JobIndex:
    """The JobTracker's standing index of live jobs.

    Every JobTracker owns one of these for the whole run.  It holds
    what every heartbeat would otherwise rebuild from the live-job
    set: each live job's submission position, the jobs with a pending
    setup/cleanup tip in submission order, and -- maintained by the
    scheduler -- the SRPT sort keys plus the key-ordered list of jobs
    with schedulable tips.

    Nothing is rebuilt.  :meth:`add` (submission) and :meth:`remove`
    (completion, failure, kill) change the membership, the jobs'
    observer notes mark whose hot state moved, and each walk repairs
    just the marked jobs before reading.  Membership changes are
    recorded as notes too, so no list changes under a walk in
    progress.

    The answers are identical to a from-scratch scan of
    :meth:`repro.hadoop.jobtracker.JobTracker.running_jobs`:
    ``tests/test_index_exactness.py`` checks that after every
    heartbeat (``tests/test_batch_properties.py`` over random cells
    too), and ``tests/test_batched_differential.py`` pins whole-run
    digests recorded when a rescan path still existed to compare
    against.
    """

    __slots__ = (
        "job_pos",
        "next_pos",
        "aux_pos",
        "aux_jobs",
        "aux_at",
        "aux_dirty",
        "size_dirty",
        "sched_dirty",
        "key_of",
        "cand_keys",
        "cand_jobs",
        "cand_ids",
    )

    def __init__(self) -> None:
        #: live job_id -> submission position (the JobTracker's
        #: iteration order)
        self.job_pos: Dict[str, int] = {}
        self.next_pos = 0
        #: jobs with a pending setup/cleanup tip, as parallel lists
        #: sorted by submission position (= historical scan order), and
        #: each listed job's position; repaired by bisect on aux notes
        self.aux_pos: List[int] = []
        self.aux_jobs: List["JobInProgress"] = []
        self.aux_at: Dict[str, int] = {}
        #: jobs whose pending-aux verdict may have moved since the last
        #: repair -- dicts keyed by job_id (NOT sets of jobs: set
        #: iteration order hashes object ids and is not deterministic)
        self.aux_dirty: Dict[str, "JobInProgress"] = {}
        #: jobs whose remaining-size sort key may have moved
        self.size_dirty: Dict[str, "JobInProgress"] = {}
        #: jobs whose has-schedulable-tips verdict may have moved
        self.sched_dirty: Dict[str, "JobInProgress"] = {}
        #: scheduler-owned SRPT bookkeeping: job_id -> sort key for
        #: every live job, plus the parallel sorted key/job lists (and
        #: id set) of just the jobs with schedulable tips -- so each
        #: walk visits candidates, not the whole live-job set
        self.key_of: dict = {}
        self.cand_keys: list = []
        self.cand_jobs: List["JobInProgress"] = []
        self.cand_ids: Set[str] = set()

    def add(self, job: "JobInProgress") -> None:
        """A job was submitted: index it after every earlier job."""
        self.job_pos[job.job_id] = self.next_pos
        self.next_pos += 1
        self._note_all(job)

    def remove(self, job: "JobInProgress") -> None:
        """A job turned terminal: drop it at the next repair."""
        if self.job_pos.pop(job.job_id, None) is not None:
            self._note_all(job)

    def _note_all(self, job: "JobInProgress") -> None:
        self.size_dirty[job.job_id] = job
        self.sched_dirty[job.job_id] = job
        self.aux_dirty[job.job_id] = job

    def add_candidate(self, key, job: "JobInProgress") -> None:
        """Insert ``job`` into the candidate lists at ``key``."""
        at = bisect.bisect_left(self.cand_keys, key)
        self.cand_keys.insert(at, key)
        self.cand_jobs.insert(at, job)
        self.cand_ids.add(job.job_id)

    def drop_candidate(self, key) -> None:
        """Delete the candidate listed at ``key``."""
        at = bisect.bisect_left(self.cand_keys, key)
        del self.cand_keys[at]
        self.cand_ids.discard(self.cand_jobs.pop(at).job_id)

    def note(self, job: "JobInProgress", kind: str) -> None:
        """Job observer hook: a job's hot state moved."""
        if kind == "size":
            self.size_dirty[job.job_id] = job
        elif kind == "sched":
            self.sched_dirty[job.job_id] = job
        else:
            self.aux_dirty[job.job_id] = job

    def refresh_aux(self) -> None:
        """Repair the pending-aux lists from the dirty notes."""
        if not self.aux_dirty:
            return
        for job_id, job in self.aux_dirty.items():
            pos = self.job_pos.get(job_id)
            pending = pos is not None and job.pending_aux_tip() is not None
            listed = self.aux_at.get(job_id)
            if pending and listed is None:
                at = bisect.bisect_left(self.aux_pos, pos)
                self.aux_pos.insert(at, pos)
                self.aux_jobs.insert(at, job)
                self.aux_at[job_id] = pos
            elif not pending and listed is not None:
                at = bisect.bisect_left(self.aux_pos, listed)
                del self.aux_pos[at]
                del self.aux_jobs[at]
                del self.aux_at[job_id]
        self.aux_dirty.clear()
