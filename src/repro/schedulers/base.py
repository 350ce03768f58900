"""Scheduler plug-in interface.

Mirrors Hadoop 1's ``TaskScheduler``: the JobTracker calls
:meth:`TaskScheduler.assign_tasks` while answering each heartbeat, and
notifies the scheduler of job lifecycle events.

The paper keeps the preemption *mechanism* apart from the *policy*
that picks victims, and so does this base class.  It owns the
mechanism the preempting schedulers (FAIR, HFSP) share: the
configurable :class:`~repro.preemption.base.PreemptionPrimitive`, the
victim loop (:meth:`TaskScheduler._preempt_victims`) and the ledger
of suspended tips with its restore loop
(:meth:`TaskScheduler._restore_suspended`).  It also owns what every
scheduler shares when it assigns: the slot loop over a job's
schedulable tips (:meth:`TaskScheduler._take_schedulable`) and delay
scheduling for locality.  Subclasses keep the policy: who is starved,
which victims, and when a suspended tip may come back.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.errors import NotPreemptibleError
from repro.hadoop.job import JobInProgress
from repro.hadoop.states import TipState
from repro.hadoop.task import TaskInProgress
from repro.workloads.jobspec import TaskKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.jobtracker import JobTracker

_MAP = TaskKind.MAP


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
        #: callable(cluster) -> PreemptionPrimitive, called by
        #: :meth:`attach_cluster` so the scheduler can be constructed
        #: before the cluster exists; None never preempts
        self.primitive_factory = None
        self.primitive = None
        self.cluster = None
        #: tips this scheduler suspended that have not come back yet
        self._suspended: List[TaskInProgress] = []
        self.preemptions = 0

    def bind(self, jobtracker: "JobTracker") -> None:
        """Attach to a JobTracker (called once at construction time)."""
        self.jobtracker = jobtracker

    def attach_cluster(self, cluster) -> None:
        """Late-bind the cluster (called by experiment harnesses) and
        build the preemption primitive, if a factory is configured."""
        self.cluster = cluster
        if self.primitive_factory is not None:
            self.primitive = self.primitive_factory(cluster)

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

    def preempt_with_admission(self, tip: TaskInProgress) -> str:
        """Preempt ``tip`` with the scheduler's primitive, honouring the
        suspend-admission gate when one is configured; returns the
        action actually taken ("suspend", "kill", "wait" or the
        primitive's own name).

        With no gate this is exactly ``primitive.preempt(tip)`` -- the
        historical, ungated behaviour.  With a gate, suspend requests
        are admitted only while the victim node's RAM + swap headroom
        covers the Section III-A constraint; denials walk the gate's
        fallback ladder.
        """
        from repro.preemption.admission import admit_and_preempt

        return admit_and_preempt(self.admission, self.primitive, tip)

    def _preempt_victims(self, victims: Iterable) -> None:
        """Preempt each eviction candidate's tip, in order.

        A tip the primitive refuses is skipped.  Under a gate, a
        "wait" verdict leaves the victim holding its slot, so it is
        neither counted nor tracked (the gate counts it).  Every other
        preemption counts, and a tip left MUST_SUSPEND joins the
        suspended ledger.
        """
        for victim in victims:
            tip = victim.tip
            try:
                action = self.preempt_with_admission(tip)
            except NotPreemptibleError:
                continue
            if self.admission is not None and action == "wait":
                continue
            self.preemptions += 1
            if tip.state is TipState.MUST_SUSPEND:
                self._suspended.append(tip)

    def _restore_suspended(
        self, may_restore: Callable[[TaskInProgress], bool]
    ) -> None:
        """Restore the suspended tips that ``may_restore`` accepts.

        Tips no longer SUSPENDED (resumed, finished, requeued, or with
        the stop still in flight) leave the ledger; rejected ones stay.
        """
        kept: List[TaskInProgress] = []
        for tip in self._suspended:
            if tip.state is not TipState.SUSPENDED:
                continue
            if may_restore(tip):
                self.primitive.restore(tip)
            else:
                kept.append(tip)
        self._suspended = kept

    def _candidate_jobs(self) -> List[JobInProgress]:
        """Running jobs in submission order."""
        return self.jobtracker.running_jobs()

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
            if want_map <= 0 and want_reduce <= 0:
                break  # every later tip would be skipped
            is_map = tip.spec.kind is _MAP
            if (want_map if is_map else want_reduce) <= 0:
                continue
            if check_locality and self._decline_for_locality(
                tip, tracker, delay, memo
            ):
                continue
            if is_map:
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
