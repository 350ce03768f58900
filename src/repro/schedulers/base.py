"""Scheduler plug-in interface.

Mirrors Hadoop 1's ``TaskScheduler``: the JobTracker calls
:meth:`TaskScheduler.assign_tasks` while answering each heartbeat, and
notifies the scheduler of job lifecycle events.  Schedulers that
preempt (FAIR, HFSP, deadline) do so through the JobTracker's
preemption API with a configurable
:class:`~repro.preemption.base.PreemptionPrimitive`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional

from repro.hadoop.job import JobInProgress
from repro.hadoop.task import TaskInProgress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.jobtracker import JobTracker


class TaskScheduler(abc.ABC):
    """Base class for pluggable job/task schedulers."""

    def __init__(self) -> None:
        self.jobtracker: "JobTracker" = None  # bound by the JobTracker
        #: delay-scheduling knob: seconds a tip with a data preference
        #: may decline off-rack slots before accepting any slot.  0
        #: disables the behaviour (historical default).  Trades queue
        #: wait against off-rack flows on the network fabric.
        self.locality_wait_seconds = 0.0
        #: set by schedulers that attach a cluster; locality decisions
        #: need the rack map (and block locations for map inputs)
        self.topology = None
        self.namenode = None
        #: swap-aware suspend admission gate
        #: (:class:`repro.preemption.admission.SuspendAdmissionGate`);
        #: None (the default) preserves ungated suspension
        self.admission = None

    def bind(self, jobtracker: "JobTracker") -> None:
        """Attach to a JobTracker (called once at construction time)."""
        self.jobtracker = jobtracker

    # -- lifecycle notifications (default: no-op) ----------------------------

    def job_added(self, job: JobInProgress) -> None:
        """A job was submitted."""

    def job_updated(self, job: JobInProgress) -> None:
        """A task of the job changed state."""

    def job_completed(self, job: JobInProgress) -> None:
        """The job reached a terminal state."""

    def serves_job(self, job: JobInProgress) -> bool:
        """True when this scheduler currently assigns the job's tasks.

        Schedulers that fence jobs out of slots (the dummy scheduler's
        freeze/allowlist) override this; speculative execution consults
        it so backups never sneak a fenced job into a freed slot.
        """
        return True

    # -- the scheduling decision ----------------------------------------------

    @abc.abstractmethod
    def assign_tasks(
        self, tracker: str, free_map_slots: int, free_reduce_slots: int
    ) -> List[TaskInProgress]:
        """Pick tasks to launch on ``tracker``.

        Returns at most ``free_map_slots`` map tips plus
        ``free_reduce_slots`` reduce tips.  The JobTracker enforces the
        limits, so returning too many is safe but wasteful.
        """

    def may_offer(self, index) -> bool:
        """False only when any tracker's heartbeat, its report already
        processed, would certainly get nothing from :meth:`assign_tasks`
        and change no scheduler state a later call would not redo the
        same way.

        ``index`` is the JobTracker's standing
        :class:`~repro.hadoop.heartbeat.JobIndex`.  The default, True,
        keeps the full heartbeat walk for every scheduler that acts on
        heartbeats.
        """
        return True

    # -- helpers shared by implementations ----------------------------------------

    def preempt_with_admission(self, primitive, tip: TaskInProgress) -> str:
        """Preempt ``tip``, honouring the suspend-admission gate when
        one is configured; returns the action actually taken
        ("suspend", "kill", "wait" or the primitive's own name).

        With no gate this is exactly ``primitive.preempt(tip)`` -- the
        historical, ungated behaviour.  With a gate, suspend requests
        are admitted only while the victim node's RAM + swap headroom
        covers the Section III-A constraint; denials walk the gate's
        fallback ladder.
        """
        from repro.preemption.admission import admit_and_preempt

        return admit_and_preempt(self.admission, primitive, tip)

    def _candidate_jobs(self) -> List[JobInProgress]:
        """Running jobs in submission order."""
        return self.jobtracker.running_jobs()

    @staticmethod
    def job_pending_demand(job: JobInProgress) -> int:
        """Tasks the job wants to run but cannot yet.

        Jobs still in PREP count their whole task list: the setup task
        is queued behind the busy slots, so the demand is real even
        though no work tip is schedulable yet.  Preemption logic must
        use this (not ``schedulable_tips``) or PREP jobs starve
        silently.
        """
        from repro.hadoop.job import JobState

        if job.state is JobState.PREP:
            return len(job.tips)
        return len(job.schedulable_tips())

    def _schedulable_order(self, job: JobInProgress) -> List[TaskInProgress]:
        """The order in which a job's schedulable tips are offered to
        :meth:`_take_schedulable`.  Policy mixins override this (e.g.
        recovery-first resubmission) without copying the slot loop."""
        return job.schedulable_tips()

    def _take_schedulable(
        self,
        job: JobInProgress,
        want_map: int,
        want_reduce: int,
        tracker: Optional[str] = None,
    ) -> List[TaskInProgress]:
        """Up to the requested number of schedulable tips of each kind.

        When the locality knob is on and the offering ``tracker`` is
        known, tips whose data lives off-rack decline the slot until
        they have waited ``locality_wait_seconds`` (classic delay
        scheduling, applied to shuffle sources and HDFS replicas).
        """
        chosen: List[TaskInProgress] = []
        delay = self.locality_wait_seconds
        check_locality = delay > 0 and tracker is not None and self.topology is not None
        # Per-offer memo: every reduce tip of the job shares one
        # map-output host list, and a map's replica set is constant, so
        # resolve each at most once per call instead of per tip.
        memo: dict = {}
        for tip in self._schedulable_order(job):
            if tip.kind.value == "map":
                if want_map <= 0:
                    continue
            else:
                if want_reduce <= 0:
                    continue
            if check_locality and self._decline_for_locality(
                tip, tracker, delay, memo
            ):
                continue
            if tip.kind.value == "map":
                want_map -= 1
            else:
                want_reduce -= 1
            chosen.append(tip)
        return chosen

    # -- delay scheduling (locality knob) --------------------------------------

    def _decline_for_locality(
        self,
        tip: TaskInProgress,
        tracker: str,
        delay: float,
        memo: dict = None,
    ) -> bool:
        """True when ``tip`` should skip this off-rack offer and keep
        waiting for a closer slot."""
        from repro.hdfs.topology import Locality

        if memo is None:
            preferred = self._preferred_hosts(tip)
        else:
            key = (
                ("reduce", tip.job.job_id)
                if tip.spec.kind.value == "reduce"
                else ("map", tip.spec.input_path)
            )
            if key not in memo:
                memo[key] = self._preferred_hosts(tip)
            preferred = memo[key]
        if not preferred:
            return False
        if self.topology.locality(tracker, preferred) <= Locality.RACK_LOCAL:
            tip.locality_skipped_at = None
            return False
        now = self.jobtracker.sim.now
        if tip.locality_skipped_at is None:
            tip.locality_skipped_at = now
            return True
        return now - tip.locality_skipped_at < delay

    def _preferred_hosts(self, tip: TaskInProgress) -> List[str]:
        """Hosts near this tip's data: map-input replicas for maps,
        the job's map-output hosts for reduces.  Empty = no preference
        (the tip accepts any slot immediately)."""
        spec = tip.spec
        if spec.kind.value == "reduce":
            if spec.shuffle_bytes <= 0:
                return []
            from repro.hadoop.task import TipRole

            return [
                m.tracker
                for m in tip.job.tips
                if m.role is TipRole.MAP and m.tracker is not None
            ]
        if spec.input_path and self.namenode is not None:
            hosts: List[str] = []
            for location in self.namenode.block_locations(spec.input_path):
                for host in location.hosts:
                    if host not in hosts:
                        hosts.append(host)
            return hosts
        return []
