"""HFSP: size-based scheduling (the authors' companion system).

"Size-based schedulers in general attribute priorities to jobs
according to a virtual or real size, and preemption can guarantee that
higher-priority jobs are allowed to run earlier. ... We have
preliminary results showing that our preemption primitive performs
well in the context of HFSP, our size-based scheduler for Hadoop."

This is a compact HFSP (Pastorelli et al., IEEE Big Data 2013): jobs
are ordered by *remaining size* (shortest first, SRPT-style); when a
strictly smaller job arrives and no slot is free, tasks of the largest
running job are preempted with the configured primitive and restored
when capacity returns.

Simplifications: job sizes come from the specs' serial-runtime
estimates instead of HFSP's online training phase, and the virtual
aging of the real HFSP is omitted (sizes here are exact, so aging adds
nothing).
"""

from __future__ import annotations

from typing import List

from repro.errors import NotPreemptibleError
from repro.hadoop.heartbeat import JobIndex
from repro.hadoop.job import JobInProgress
from repro.hadoop.states import TipState
from repro.hadoop.task import TaskInProgress
from repro.schedulers.base import TaskScheduler


class HfspScheduler(TaskScheduler):
    """Shortest-remaining-size-first with preemption.

    The SRPT order lives in the bound JobTracker's standing
    :class:`JobIndex`, kept across heartbeats instead of re-sorted on
    every one.
    """

    def __init__(
        self,
        primitive_factory=None,
        preempt_on_arrival: bool = True,
        locality_wait_seconds: float = 0.0,
        admission_config=None,
        eviction_policy=None,
    ):
        super().__init__()
        self.primitive_factory = primitive_factory
        self.preempt_on_arrival = preempt_on_arrival
        self.locality_wait_seconds = locality_wait_seconds
        #: :class:`repro.preemption.admission.AdmissionConfig` enabling
        #: the swap-aware suspend gate; None keeps ungated suspension
        self.admission_config = admission_config
        #: optional :class:`repro.preemption.eviction.EvictionPolicy`
        #: re-ranking victims; None keeps the historical
        #: largest-job-first order
        self.eviction_policy = eviction_policy

    def attach_cluster(self, cluster) -> None:
        """Enable preemption (optional; without it HFSP degrades to
        non-preemptive shortest-job-first), the locality knob (which
        needs the rack map), and the suspend-admission gate."""
        super().attach_cluster(cluster)
        self.topology = cluster.topology
        self.namenode = cluster.namenode
        if self.admission_config is not None:
            from repro.preemption.admission import SuspendAdmissionGate

            self.admission = SuspendAdmissionGate(cluster, self.admission_config)

    # -- size bookkeeping -------------------------------------------------------

    @staticmethod
    def remaining_size(job: JobInProgress) -> float:
        """Serial seconds of work left in the job.

        Served from the job's progress-invalidated cache: the
        per-heartbeat SRPT sort reads this for every live job, and most
        jobs saw no progress report since the last heartbeat.
        """
        return job.remaining_work_seconds()

    # -- assignment ------------------------------------------------------------------

    def assign_tasks(
        self,
        tracker: str,
        free_map_slots: int,
        free_reduce_slots: int,
    ) -> List[TaskInProgress]:
        if free_map_slots <= 0 and free_reduce_slots <= 0:
            # Saturated tracker: the job loop below would break on its
            # first iteration (restores need a free slot too), so skip
            # the suspended-tip scan and the SRPT sort entirely -- on a
            # loaded cluster this is the common case for every heartbeat.
            return []
        suspended_here = self._suspended_on(tracker)
        # The standing SRPT order, repaired from the jobs' size/sched
        # notes: each walk visits only the jobs with schedulable tips,
        # merged with this tracker's suspended jobs.  A job with
        # neither is a no-op in the loop below.
        candidates = self._index_candidates(
            self.jobtracker.job_index, suspended_here
        )
        assigned: List[TaskInProgress] = []
        for job in candidates:
            if free_map_slots <= 0 and free_reduce_slots <= 0:
                break
            # A job first gets its own suspended tips back (resume is
            # cheaper than a fresh launch), then new attempts.  Doing
            # this inside the SRPT loop keeps the size order honest: a
            # bigger job's suspended tip never steals the slot a
            # smaller job's work is queued for.  Riding the host's own
            # heartbeat (suspended images are host-bound) also
            # guarantees survivors resume even when no further
            # job-completion event ever fires.
            for tip in suspended_here.get(job.job_id, ()):
                is_map = tip.kind.value == "map"
                free = free_map_slots if is_map else free_reduce_slots
                if free <= 0 or tip.state is not TipState.SUSPENDED:
                    continue
                try:
                    self.primitive.restore(tip)
                except NotPreemptibleError:  # pragma: no cover - defensive
                    continue
                self._suspended.remove(tip)
                if is_map:
                    free_map_slots -= 1
                else:
                    free_reduce_slots -= 1
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

    def may_offer(self, index: JobIndex) -> bool:
        """No tracker gets anything while no tip waits for a
        restore, no job's candidacy verdict awaits repair and no job
        is a candidate.  Pending size notes do not count: they only
        reorder candidates, and a later repair computes the same key."""
        return bool(self._suspended or index.sched_dirty or index.cand_ids)

    def _index_candidates(
        self, index: JobIndex, suspended_here: dict
    ) -> List[JobInProgress]:
        """The index's candidate walk order, repaired from its notes.

        Every live job is keyed by ``(remaining_size, submit_time,
        job_id)`` -- a strict total order (job ids are unique) -- and
        the index keeps the sorted key/job lists of just the jobs with
        schedulable tips.  A walk first repairs what moved since the
        last one, two bisects per change: jobs whose size notes fired
        are re-keyed and repositioned (a job new to the index gets its
        first key, a job gone from it loses key and candidacy), then
        jobs whose sched notes fired enter or leave the candidates.
        The result matches a from-scratch filter-then-sort of
        :meth:`~repro.hadoop.jobtracker.JobTracker.running_jobs`
        exactly: same job set (candidacy verdicts are repaired from the
        same transitions the filter reads), same strict key order.
        """
        key_of, cand_ids = index.key_of, index.cand_ids
        if index.size_dirty:
            for job_id, job in index.size_dirty.items():
                old_key = key_of.get(job_id)
                if job_id not in index.job_pos:
                    # Left the index (completed, failed or killed).
                    if old_key is not None:
                        del key_of[job_id]
                        if job_id in cand_ids:
                            index.drop_candidate(old_key)
                    continue
                new_key = (self.remaining_size(job), job.submit_time, job_id)
                if new_key == old_key:
                    continue
                key_of[job_id] = new_key
                if job_id in cand_ids:
                    index.drop_candidate(old_key)
                    index.add_candidate(new_key, job)
            index.size_dirty.clear()
        if index.sched_dirty:
            for job_id, job in index.sched_dirty.items():
                key = key_of.get(job_id)
                if key is None:
                    continue  # not in the index
                want = bool(job.schedulable_tips())
                if want and job_id not in cand_ids:
                    index.add_candidate(key, job)
                elif not want and job_id in cand_ids:
                    index.drop_candidate(key)
            index.sched_dirty.clear()
        jobs = index.cand_jobs
        if not suspended_here:
            return jobs
        # This tracker's suspended jobs walk too, even with nothing
        # schedulable (their tips restore first); merge the few of them
        # not already candidates into the key order.
        extras = []
        for job_id, tips in suspended_here.items():
            if job_id in cand_ids:
                continue
            key = key_of.get(job_id)
            if key is None:
                continue  # not a running job
            extras.append((key, tips[0].job))
        if not extras:
            return jobs
        extras.sort(key=lambda pair: pair[0])
        merged: List[JobInProgress] = []
        keys = index.cand_keys
        i = j = 0
        while i < len(jobs) and j < len(extras):
            if keys[i] < extras[j][0]:
                merged.append(jobs[i])
                i += 1
            else:
                merged.append(extras[j][1])
                j += 1
        merged.extend(jobs[i:])
        merged.extend(pair[1] for pair in extras[j:])
        return merged

    def _suspended_on(self, tracker: str) -> dict:
        """Still-suspended tips bound to ``tracker``, grouped by job.

        Stale entries (tips that resumed, finished or died elsewhere)
        are pruned here so the watch list cannot grow without bound;
        tips whose stop directive is still in flight (MUST_SUSPEND)
        stay tracked but are not offered slots yet.
        """
        if self.primitive is None or not self._suspended:
            return {}
        live = [
            t
            for t in self._suspended
            if t.state in (TipState.SUSPENDED, TipState.MUST_SUSPEND)
        ]
        self._suspended = live
        by_job: dict = {}
        for tip in live:
            if tip.state is TipState.SUSPENDED and tip.tracker == tracker:
                by_job.setdefault(tip.job.job_id, []).append(tip)
        for tips in by_job.values():
            tips.sort(key=lambda t: t.tip_id)
        return by_job

    # -- preemption on arrival -----------------------------------------------------------

    def job_added(self, job: JobInProgress) -> None:
        """A new job may deserve slots ahead of the running ones."""
        if not self.preempt_on_arrival or self.primitive is None:
            return
        # Defer one event so the job's tips are registered.
        self.jobtracker.sim.call_soon(self._consider_preemption, job)

    def job_completed(self, job: JobInProgress) -> None:
        """Restore tasks we suspended, smallest-job-first."""
        if self.primitive is None:
            return
        still: List[TaskInProgress] = []
        restored = {"map": 0, "reduce": 0}
        for tip in sorted(
            self._suspended,
            key=lambda t: (self.remaining_size(t.job), t.tip_id),
        ):
            if tip.state is TipState.MUST_SUSPEND:
                # The stop directive is still in flight; keep tracking
                # the tip or it would stay suspended forever once the
                # directive lands.
                still.append(tip)
                continue
            if tip.state is not TipState.SUSPENDED:
                continue
            tracker = self.jobtracker.trackers.get(tip.tracker or "")
            kind = tip.kind.value
            free = 0
            if tracker is not None:
                free = (
                    tracker.free_reduce_slots
                    if kind == "reduce"
                    else tracker.free_map_slots
                )
            # "1 +": the completing job's own slot frees momentarily,
            # so one restore beyond the currently-free count is safe.
            if tracker is not None and restored[kind] < 1 + free:
                self.primitive.restore(tip)
                restored[kind] += 1
            else:
                still.append(tip)
        self._suspended = still

    def _consider_preemption(self, new_job: JobInProgress) -> None:
        if new_job.state.terminal:
            return
        free_anywhere = any(
            t.free_map_slots > 0 for t in self.jobtracker.trackers.values()
        )
        if free_anywhere:
            return  # the new job will be served at the next heartbeat
        new_size = self.remaining_size(new_job)
        # Victims: running tasks of strictly larger jobs.
        from repro.preemption.eviction import collect_candidates

        candidates = [
            c
            for c in collect_candidates(
                self.cluster, protect_jobs={new_job.spec.name}
            )
            if self.remaining_size(c.tip.job) > new_size
        ]
        # Largest job's tasks go first (they delay everyone the most);
        # an explicit eviction policy (e.g. the resident x progress
        # suspend-cost model) re-ranks within that default.
        candidates.sort(
            key=lambda c: (-self.remaining_size(c.tip.job), c.tip_id)
        )
        if self.eviction_policy is not None:
            candidates = self.eviction_policy.rank(candidates)
        demand = sum(1 for t in new_job.tips if t.schedulable)
        self._preempt_victims(candidates[: max(0, demand)])
