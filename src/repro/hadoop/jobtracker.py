"""The JobTracker: cluster state, heartbeats, and the preemption API.

"Mirroring the implementation of the kill primitive in Hadoop, we
introduce i) new messages between the JobTracker ... and TaskTrackers
..., and ii) new identifiers for task states in the JobTracker."

The preemption API (:meth:`JobTracker.suspend_task`,
:meth:`JobTracker.resume_task`, :meth:`JobTracker.kill_task`) "can be
used both by users on the command line and by schedulers".  Directives
are piggybacked on the next heartbeat from the task's TaskTracker and
confirmed by the one after, exactly as Section III-B describes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.errors import (
    TaskStateError,
    UnknownJobError,
    UnknownTaskError,
)
from repro.hadoop.config import HadoopConfig
from repro.hadoop.heartbeat import (
    AttemptStatus,
    HeartbeatReport,
    HeartbeatResponse,
    JobIndex,
    KillTaskAction,
    LaunchTaskAction,
    ResumeTaskAction,
    SuspendTaskAction,
    TrackerAction,
)
from repro.hadoop.job import JobInProgress, JobState
from repro.hadoop.speculation import SpeculativeExecutor
from repro.hadoop.states import AttemptState, TipState
from repro.hadoop.task import TaskInProgress, TipRole
from repro.metrics.wasted import (
    JOB_TEARDOWN,
    LOST_MAP_OUTPUT,
    OOM_KILL,
    PREEMPTION_KILL,
    SPECULATION_LOSER,
    TASK_FAILURE,
    TRACKER_LOST,
    WastedWorkLedger,
)
from repro.sim.engine import Simulation
from repro.workloads.jobspec import JobSpec, TaskKind, TaskSpec

# Member aliases for the per-status and per-tip tests of the report
# path: identity against a module global costs no Python-level enum
# code (a member lookup on the class, or hashing a member, does).
_MUST_SUSPEND = TipState.MUST_SUSPEND
_MUST_RESUME = TipState.MUST_RESUME
_MUST_KILL = TipState.MUST_KILL
_RUNNING = AttemptState.RUNNING
_SUSPENDING = AttemptState.SUSPENDING
_SUSPENDED = AttemptState.SUSPENDED
_SUCCEEDED = AttemptState.SUCCEEDED
_FAILED = AttemptState.FAILED
_KILLED = AttemptState.KILLED


@dataclass(frozen=True)
class AttemptDescriptor:
    """Everything a TaskTracker needs to launch an attempt."""

    attempt_id: str
    tip_id: str
    job_id: str
    spec: TaskSpec
    is_setup: bool = False
    is_cleanup: bool = False


class JobTracker:
    """Central coordinator: jobs, tasks, trackers, scheduling."""

    def __init__(self, sim: Simulation, config: HadoopConfig, scheduler):
        self.sim = sim
        self.config = config
        self.scheduler = scheduler
        self.jobs: Dict[str, JobInProgress] = {}
        self.trackers: Dict[str, "object"] = {}
        self._tips: Dict[str, TaskInProgress] = {}
        #: host -> {tip_id: tip} for tips bound there: live tips whose
        #: active attempt runs (or is launching) there, and succeeded
        #: tips, which stay bound so a lost host's map output can be
        #: requeued; maintained through the TIPs' tracker observers so
        #: heartbeat handling is O(tips on that host), not O(all tips)
        self._tips_by_tracker: Dict[str, Dict[str, TaskInProgress]] = {}
        self._descriptors: Dict[str, AttemptDescriptor] = {}
        self._job_counter = itertools.count(1)
        self._completion_callbacks: List[Callable[[JobInProgress], None]] = []
        #: jobs that reached SUCCEEDED, or FAILED via the retry cap
        #: (what :meth:`on_job_complete` callbacks are told of)
        self.jobs_completed = 0
        #: hooks that may rewrite a TaskSpec at attempt-creation time
        #: (used by checkpoint-based primitives to fast-forward)
        self.spec_transformers: List[
            Callable[[TaskInProgress, TaskSpec], TaskSpec]
        ] = []
        self.heartbeats_received = 0
        #: virtual time of each tracker's last heartbeat (expiry input)
        self.last_heartbeat: Dict[str, float] = {}
        #: largest per-node suspended total (resident + swapped) any
        #: heartbeat ever reported -- Section III-A's operand, the
        #: quantity the memscale study plots against the swap size
        self.peak_suspended_bytes = 0
        #: attempts lost to the OOM killer (cluster-wide)
        self.oom_kills = 0
        #: trackers no longer given new work (too many task failures)
        self.blacklisted: Set[str] = set()
        #: task failures charged to each tracker (blacklist input)
        self.tracker_failure_counts: Dict[str, int] = {}
        #: discarded task-seconds by cause (kills, failures, losses)
        self.wasted = WastedWorkLedger()
        self.trackers_lost = 0
        self.speculator: Optional[SpeculativeExecutor] = None
        if config.speculative_execution:
            self.speculator = SpeculativeExecutor(self)
        #: standing live-job index every heartbeat consults (the aux
        #: list here, the SRPT candidate order in HFSP)
        self.job_index = JobIndex()
        #: the newest run of parked idle trackers, which the next
        #: tracker to park may join (see ``TaskTracker._park``)
        self.parked_run = None
        self._expiry_event = None
        scheduler.bind(self)

    # -- registration -------------------------------------------------------------

    def register_tracker(self, tracker) -> None:
        """Called by TaskTracker constructors (and on daemon restart)."""
        self.trackers[tracker.host] = tracker
        self.last_heartbeat[tracker.host] = self.sim.now

    def on_job_complete(self, callback: Callable[[JobInProgress], None]) -> None:
        """Register a callback fired when any job reaches a terminal
        state through the JobTracker (SUCCEEDED, or FAILED via the
        retry-cap path).  Check ``job.state`` if only success matters."""
        self._completion_callbacks.append(callback)

    # -- job API ---------------------------------------------------------------------

    def submit_job(self, spec: JobSpec) -> JobInProgress:
        """Accept a job; its setup task becomes schedulable immediately."""
        job_id = f"{next(self._job_counter):04d}"
        job = JobInProgress(
            job_id,
            spec,
            submit_time=self.sim.now,
            run_setup_cleanup=self.config.run_job_setup_cleanup,
        )
        self.jobs[job_id] = job
        self.job_index.add(job)
        job.observer = self.job_index.note
        for tip in job.all_tips():
            self._tips[tip.tip_id] = tip
            tip.tracker_observer = self._on_tip_tracker_change
        self.trace("jt.submit", job=job_id, name=spec.name)
        self.scheduler.job_added(job)
        return job

    def job(self, job_id: str) -> JobInProgress:
        """Look up a job by id."""
        if job_id not in self.jobs:
            raise UnknownJobError(f"unknown job {job_id}")
        return self.jobs[job_id]

    def job_by_name(self, name: str) -> JobInProgress:
        """Look up the most recently submitted job with a spec name."""
        for job in reversed(list(self.jobs.values())):
            if job.spec.name == name:
                return job
        raise UnknownJobError(f"no job named {name!r}")

    def kill_job(self, job_id: str) -> None:
        """Kill a job and all of its live attempts."""
        job = self.job(job_id)
        job.kill(self.sim.now)
        # kill() does not route through _announce_completion, so the
        # job leaves the index here.
        self.job_index.remove(job)
        for tip in job.all_tips():
            if tip.state.active and tip.state is not TipState.MUST_KILL:
                try:
                    tip.request_kill(self.sim.now)
                except TaskStateError:  # pragma: no cover - defensive
                    pass
                self._wake(tip)
        self._teardown_speculative(job)
        self.trace("jt.kill-job", job=job_id)

    # -- the preemption API (Section III-B) ----------------------------------------------

    def suspend_task(self, tip_id: str) -> None:
        """Mark a running task MUST_SUSPEND; the suspend directive rides
        the next heartbeat to the task's TaskTracker."""
        tip = self.tip(tip_id)
        tip.request_suspend(self.sim.now)
        self._wake(tip)
        self.trace("jt.must-suspend", tip=tip_id)

    def resume_task(self, tip_id: str) -> None:
        """Mark a suspended task MUST_RESUME; the resume directive is
        sent as soon as the owning tracker has a free slot."""
        tip = self.tip(tip_id)
        tip.request_resume(self.sim.now)
        self._wake(tip)
        self.trace("jt.must-resume", tip=tip_id)

    def kill_task(self, tip_id: str) -> None:
        """Kill the task's active attempt; the TIP is rescheduled from
        scratch (the pre-existing Hadoop primitive)."""
        tip = self.tip(tip_id)
        tip.request_kill(self.sim.now)
        self._wake(tip)
        self.trace("jt.must-kill", tip=tip_id)

    def _wake(self, tip: TaskInProgress) -> None:
        """The tip now awaits a directive: its host's next heartbeat
        must walk, even if that tracker is parked."""
        tracker = self.trackers.get(tip.tracker)
        if tracker is not None:
            tracker.wake()

    def tip(self, tip_id: str) -> TaskInProgress:
        """Look up a task-in-progress by id."""
        if tip_id not in self._tips:
            raise UnknownTaskError(f"unknown task {tip_id}")
        return self._tips[tip_id]

    def attempt_descriptor(self, attempt_id: str) -> AttemptDescriptor:
        """Descriptor for a previously assigned attempt."""
        if attempt_id not in self._descriptors:
            raise UnknownTaskError(f"unknown attempt {attempt_id}")
        return self._descriptors[attempt_id]

    def record_attempt_counters(self, job_id: str, counters) -> None:
        """Merge a terminal attempt's counters into its job."""
        job = self.jobs.get(job_id)
        if job is not None:
            job.counters.merge(counters)

    # -- tracker failure ----------------------------------------------------------

    def start_expiry_monitor(self) -> None:
        """Begin periodic heartbeat-timeout checks.

        A tracker silent for ``config.tracker_expiry_interval`` seconds
        is declared lost and its work requeued -- Hadoop's
        ``mapred.tasktracker.expiry.interval`` behaviour.  Called by
        :meth:`repro.hadoop.cluster.HadoopCluster.start`.
        """
        if self._expiry_event is not None:
            return
        self._schedule_expiry_check()

    def _schedule_expiry_check(self) -> None:
        # Check at a fraction of the expiry interval so detection lag
        # stays small relative to the timeout itself.
        self._expiry_event = self.sim.schedule(
            max(self.config.tracker_expiry_interval / 3.0, 1.0),
            self._check_tracker_expiry,
            label="jt.expiry-check",
        )

    def settle_heartbeats(self) -> None:
        """Bring up to date the heartbeat bookkeeping parked trackers
        keep lazily (``last_heartbeat`` here, each tracker's sequence
        number and phase tick): call before reading it."""
        for tracker in self.trackers.values():
            if tracker._run is not None:
                tracker._settle()

    def _check_tracker_expiry(self) -> None:
        self.settle_heartbeats()
        deadline = self.sim.now - self.config.tracker_expiry_interval
        expired = [
            host
            for host, seen in self.last_heartbeat.items()
            if seen < deadline and host in self.trackers
        ]
        for host in sorted(expired):
            self.trace("jt.tracker-expired", tracker=host)
            self.tracker_lost(host)
        self._schedule_expiry_check()

    def tracker_lost(self, host: str) -> None:
        """A TaskTracker stopped heartbeating: requeue everything it ran.

        Suspended process images die with the node ("a suspended
        process can only be resumed on the same machine"), so their
        tasks restart from scratch -- the same fallback as a non-local
        resume.  Completed map output also lives on the node's local
        disk, so completed maps of unfinished jobs are re-executed.
        """
        tracker = self.trackers.pop(host, None)
        if tracker is None:
            raise UnknownJobError(f"no tracker registered on {host!r}")
        tracker.shutdown()
        self.last_heartbeat.pop(host, None)
        # Drop the host's failure record with it: stale blacklist
        # entries would otherwise tighten the half-cluster blacklist
        # cap against the remaining live trackers forever.
        self.blacklisted.discard(host)
        self.tracker_failure_counts.pop(host, None)
        self.trackers_lost += 1
        self._requeue_tracker_tasks(host, tracker)
        self.trace("jt.tracker-lost", tracker=host)

    def _requeue_tracker_tasks(self, host: str, tracker=None) -> None:
        """Requeue live and (where needed) completed work of a dead host.

        ``tracker`` (when still available) lets the discarded progress
        of backup attempts that died with the node be read off their
        attempt records for the wasted-work ledger.
        """
        for tip in self._tips_on_tracker(host):
            if tip.state is TipState.SUCCEEDED:
                if self._map_output_needed(tip):
                    self.wasted.add(
                        LOST_MAP_OUTPUT,
                        tip.work_seconds(),
                        tip.tip_id,
                    )
                    tip.mark_output_lost()
                    self.scheduler.job_updated(tip.job)
                continue
            if tip.state.terminal:
                continue
            progress_lost = tip.progress
            if tracker is not None and tip.active_attempt_id is not None:
                attempt = tracker.attempts.get(tip.active_attempt_id)
                if attempt is not None:
                    # The node's shuffle traffic died with its daemon.
                    self.wasted.add_network_bytes(
                        TRACKER_LOST,
                        attempt.fetched_network_bytes(),
                        tip.tip_id,
                    )
            tip.mark_lost_tracker()
            lost_seconds = (
                tip.work_seconds(progress_lost)
            )
            tip.wasted_seconds += lost_seconds
            self.wasted.add(TRACKER_LOST, lost_seconds, tip.tip_id)
        # Backup attempts that lived on the dead host die with it; the
        # primaries elsewhere are unaffected, but the backups' progress
        # is discarded work like any other.
        for tip in self._tips.values():
            if tip.speculative_tracker != host:
                continue
            if tracker is not None:
                attempt = tracker.attempts.get(tip.speculative_attempt_id)
                if attempt is not None:
                    lost = (
                        tip.work_seconds(attempt.progress())
                    )
                    tip.wasted_seconds += lost
                    self.wasted.add(TRACKER_LOST, lost, tip.tip_id)
            tip.clear_speculative()

    def _map_output_needed(self, tip: TaskInProgress) -> bool:
        """True when a completed map's lost output must be recomputed."""
        return (
            self.config.rerun_completed_maps_on_loss
            and tip.role is TipRole.MAP
            and not tip.job.state.terminal
        )

    def handle_tracker_restart(self, tracker) -> None:
        """A TaskTracker daemon came back on a known host.

        If the old incarnation was never declared lost (it crashed and
        restarted within the expiry interval), its in-flight work is
        requeued now: the fresh daemon has no task state.
        """
        host = tracker.host
        if host in self.trackers:
            self._requeue_tracker_tasks(host, tracker)
        # A fresh daemon starts with a clean record, as in real Hadoop:
        # the blacklist targets a sick incarnation, not the hostname.
        self.blacklisted.discard(host)
        self.tracker_failure_counts.pop(host, None)
        self.register_tracker(tracker)
        self.trace("jt.tracker-restarted", tracker=host)

    # -- blacklisting ----------------------------------------------------------------

    def _charge_tracker_failure(self, host: Optional[str]) -> None:
        """Count a task failure against ``host``; blacklist past the
        threshold (``mapred.max.tracker.failures``).

        As in real Hadoop, at most half the cluster may be blacklisted:
        without the cap, failures on every node would leave zero
        assignable trackers and deadlock jobs that should instead keep
        retrying (or fail through the attempt cap).
        """
        if host is None or self.config.tracker_blacklist_threshold <= 0:
            return
        count = self.tracker_failure_counts.get(host, 0) + 1
        self.tracker_failure_counts[host] = count
        if count >= self.config.tracker_blacklist_threshold:
            if (
                host not in self.blacklisted
                and (len(self.blacklisted) + 1) * 2 <= len(self.trackers)
            ):
                self.blacklisted.add(host)
                self.trace("jt.blacklisted", tracker=host, failures=count)

    # -- heartbeat handling -----------------------------------------------------------------

    def heartbeat(self, report: HeartbeatReport) -> HeartbeatResponse:
        """Process a TaskTracker report and reply with directives.

        The walk is skipped when :meth:`_walk_is_empty` proves it would
        return no action -- asked after processing, since a status can
        complete a job or requeue a tip.
        """
        self._note_heartbeat(report.tracker, report.suspended_bytes)
        self._process_report(report)
        if self._walk_is_empty(report.tracker):
            return HeartbeatResponse(sequence=report.sequence)
        return self._walk(report)

    def _walk(self, report: HeartbeatReport) -> HeartbeatResponse:
        """Directives, aux launches, the scheduler and the speculator,
        over an already-processed report."""
        actions: List[TrackerAction] = []
        free_map = report.free_map_slots
        free_reduce = report.free_reduce_slots

        # 1. Pending preemption directives for this tracker.  Resumes
        #    go first so a freed slot returns to the suspended task
        #    before the scheduler can hand it to a new attempt.
        free_map, free_reduce = self._preemption_actions(
            report, actions, free_map, free_reduce
        )

        # Blacklisted trackers keep servicing what they already run
        # (including resumes above) but get no new work.
        if report.tracker in self.blacklisted:
            free_map = free_reduce = 0

        # 2. Job setup/cleanup launches (Hadoop runs them outside the
        #    pluggable scheduler).
        free_map = self._aux_launches(report, actions, free_map)

        # 3. Pluggable scheduler fills the remaining slots.  Guard
        #    against scheduler bugs: drop duplicates and tips that are
        #    no longer schedulable.
        seen = set()
        assigned = self.scheduler.assign_tasks(
            report.tracker, free_map, free_reduce
        )
        for tip in assigned:
            if tip.tip_id in seen or not tip.schedulable:
                continue
            if tip.speculative_tracker == report.tracker:
                # A requeued primary must not share its backup's host:
                # co-locating the two attempts halves both rates and
                # forfeits the redundancy the backup exists to provide.
                continue
            seen.add(tip.tip_id)
            if tip.spec.kind is TaskKind.REDUCE:
                if free_reduce <= 0:
                    continue
                free_reduce -= 1
            else:
                if free_map <= 0:
                    continue
                free_map -= 1
            actions.append(self._make_launch(tip, report.tracker))

        # 4. Leftover slots may host backup attempts for stragglers.
        #    Slots the scheduler just reserved for resumes (step 3 may
        #    request_resume; the directive only rides the *next*
        #    heartbeat) are subtracted first, or the speculator would
        #    book them and starve the resume behind its backups.
        if self.speculator is not None:
            for tip in self._tips_on_tracker(report.tracker):
                if (
                    tip.state is TipState.MUST_RESUME
                    and tip.directive_sent_at is None
                ):
                    if tip.kind is TaskKind.REDUCE:
                        free_reduce -= 1
                    else:
                        free_map -= 1
            free_map = max(free_map, 0)
            free_reduce = max(free_reduce, 0)
            free_map, free_reduce = self.speculator.fill_slots(
                report.tracker, actions, free_map, free_reduce
            )

        response = HeartbeatResponse(sequence=report.sequence, actions=actions)
        if actions:
            self.trace(
                "jt.response", tracker=report.tracker, actions=response.describe()
            )
        return response

    def answer_idle(self, tracker) -> bool:
        """Answer an idle tracker's heartbeat without a report or a walk.

        The TaskTracker asks only when it has nothing to report.  True
        means :meth:`heartbeat` would return no action, so only its
        bookkeeping is done here; False means the caller must build a
        report and send it.
        """
        if not self._walk_is_empty(tracker.host):
            return False
        self._note_heartbeat(tracker.host, tracker.kernel.suspended_bytes())
        return True

    def _walk_is_empty(self, host: str) -> bool:
        """True only when a walk for ``host`` provably returns no
        action: no job has a pending (or possibly pending)
        setup/cleanup tip, no speculator could book a backup, the
        scheduler has nothing it could offer, and no tip bound to the
        host awaits a directive.  Only reads state, so a later walk
        repairs the same notes to the same result.
        """
        if not self.offers_nothing():
            return False
        bucket = self._tips_by_tracker.get(host)
        if bucket:
            for tip in bucket.values():
                # the states _preemption_actions sends a directive for
                state = tip.state
                if (
                    state is _MUST_SUSPEND
                    or state is _MUST_RESUME
                    or state is _MUST_KILL
                ) and tip.active_attempt_id is not None:
                    return False
        return True

    def offers_nothing(self) -> bool:
        """The host-independent half of :meth:`_walk_is_empty`: no job
        has a pending (or possibly pending) setup/cleanup tip, no
        speculator could book a backup, and the scheduler has nothing
        it could offer any tracker."""
        index = self.job_index
        return not (
            index.aux_dirty
            or index.aux_jobs
            or self.speculator is not None
            or self.scheduler.may_offer(index)
        )

    def _note_heartbeat(self, host: str, suspended_bytes: int) -> None:
        """Every heartbeat's bookkeeping: liveness (the expiry input)
        and the node's suspended total (Section III-A's operand)."""
        self.heartbeats_received += 1
        self.last_heartbeat[host] = self.sim.now
        if suspended_bytes > self.peak_suspended_bytes:
            self.peak_suspended_bytes = suspended_bytes

    # -- report processing --------------------------------------------------------------------

    def _process_report(self, report: HeartbeatReport) -> None:
        tips = self._tips
        for status in report.attempts:
            tip = tips.get(status.tip_id)
            if tip is None:
                continue
            attempt_id = status.attempt_id
            if attempt_id == tip.speculative_attempt_id:
                self._process_speculative_status(tip, status, report.tracker)
                continue
            if attempt_id != tip.active_attempt_id:
                # Stale report for a superseded attempt.
                continue
            state = status.state
            if state is _RUNNING or state is _SUSPENDING:
                if tip.state is _MUST_RESUME:
                    tip.confirm_resumed(self.sim.now)
                    self.trace("jt.resumed", tip=tip.tip_id)
                tip.progress = status.progress
            elif state is _SUSPENDED:
                if tip.state is _MUST_SUSPEND:
                    tip.confirm_suspended(self.sim.now)
                    self.trace("jt.suspended", tip=tip.tip_id)
                tip.progress = status.progress
            elif state is _SUCCEEDED:
                self._on_attempt_succeeded(tip, status)
            elif state is _FAILED:
                self._on_attempt_failed(tip, status, report.tracker)
            elif state is _KILLED:
                self._on_attempt_killed(tip, status)

    def _process_speculative_status(
        self, tip: TaskInProgress, status: AttemptStatus, tracker: str
    ) -> None:
        """Status for a backup attempt: first finisher wins."""
        if status.state is AttemptState.SUCCEEDED:
            if tip.state.terminal:
                return
            loser_id, loser_host = tip.active_attempt_id, tip.tracker
            tip.promote_speculative()
            self._on_attempt_succeeded(tip, status)
            self._kill_loser(tip, loser_id, loser_host)
        elif status.state.terminal:
            # The backup died; the primary carries on alone.  A genuine
            # failure still counts against the host (blacklisting,
            # per-TIP avoidance) and the ledger -- only the retry cap is
            # untouched, since the primary is alive and well.
            if status.state is AttemptState.FAILED:
                lost = tip.work_seconds(status.progress)
                tip.wasted_seconds += lost
                cause = OOM_KILL if status.oom_killed else TASK_FAILURE
                if status.oom_killed:
                    self.oom_kills += 1
                self.wasted.add(cause, lost, tip.tip_id)
                self.wasted.add_network_bytes(
                    cause, status.discarded_network_bytes, tip.tip_id
                )
                self._charge_tracker_failure(tracker)
                tip.failed_on.add(tracker)
            tip.clear_speculative()

    def _kill_loser(
        self,
        tip: TaskInProgress,
        attempt_id: Optional[str],
        host: Optional[str],
        cause: str = SPECULATION_LOSER,
        reason: str = "lost speculative race",
    ) -> None:
        """A redundant attempt must die: kill it, charge its work.

        This deliberately bypasses the MUST_KILL heartbeat-directive
        path: that state machine is per-TIP, and by the time a loser is
        reaped the TIP is already SUCCEEDED (or terminal), so there is
        no state to carry the directive.  The direct kill after one RPC
        hop models the same wire exchange; the ledger reads the loser's
        progress at directive time, undercounting by at most
        ``rpc_latency`` of extra running.
        """
        if attempt_id is None or host is None:
            return
        tracker = self.trackers.get(host)
        if tracker is None:
            return
        attempt = tracker.attempts.get(attempt_id)
        if attempt is not None and not attempt.state.terminal:
            lost = tip.work_seconds(attempt.progress())
            tip.wasted_seconds += lost
            self.wasted.add(cause, lost, tip.tip_id)
            # The loser's terminal status later hits the stale-report
            # path, so its shuffle traffic is charged here, at the same
            # instant as its seconds.
            self.wasted.add_network_bytes(
                cause, attempt.fetched_network_bytes(), tip.tip_id
            )
        self.trace("jt.kill-loser", tip=tip.tip_id, attempt=attempt_id)
        # The kill directive takes one RPC hop, like any other action.
        self.sim.schedule(
            self.config.rpc_latency,
            tracker._kill,
            attempt_id,
            reason,
            label=f"jt.kill-loser:{attempt_id}",
        )

    def _teardown_speculative(self, job: JobInProgress) -> None:
        """The job is terminal: reap any still-running backup attempts
        (they would otherwise hold slots until natural completion)."""
        for tip in job.tips:
            if not tip.has_speculative:
                continue
            backup_id, backup_host = (
                tip.speculative_attempt_id,
                tip.speculative_tracker,
            )
            tip.clear_speculative()
            self._kill_loser(
                tip, backup_id, backup_host,
                cause=JOB_TEARDOWN, reason="job terminated",
            )

    def _on_attempt_succeeded(self, tip: TaskInProgress, status: AttemptStatus) -> None:
        job = tip.job
        # "or whether it completed in the meanwhile": MUST_SUSPEND and
        # MUST_KILL races resolve in favour of completion.
        if tip.has_speculative:
            # The primary finished first: the backup is now redundant.
            loser_id, loser_host = tip.speculative_attempt_id, tip.speculative_tracker
            tip.clear_speculative()
            self._kill_loser(tip, loser_id, loser_host)
        tip.mark_succeeded(self.sim.now)
        self.trace("jt.tip-done", tip=tip.tip_id)
        if tip.role is TipRole.JOB_SETUP:
            job.on_setup_done(self.sim.now)
        self._maybe_complete_job(job)
        self.scheduler.job_updated(job)

    def _on_attempt_failed(
        self, tip: TaskInProgress, status: AttemptStatus, tracker: str
    ) -> None:
        """A task error (not a kill): retry up to the attempt cap."""
        job = tip.job
        lost_seconds = tip.work_seconds(status.progress)
        # OOM deaths get their own ledger cause: they are the loss mode
        # the suspend-admission gate exists to prevent, and folding
        # them into generic task failures would hide exactly the
        # kill-vs-suspend-vs-gated comparison the memscale study makes.
        cause = OOM_KILL if status.oom_killed else TASK_FAILURE
        if status.oom_killed:
            self.oom_kills += 1
        self.wasted.add(cause, lost_seconds, tip.tip_id)
        self.wasted.add_network_bytes(
            cause, status.discarded_network_bytes, tip.tip_id
        )
        self._charge_tracker_failure(tracker)
        tip.mark_failed_attempt(progress_lost=status.progress, tracker=tracker)
        cap = (
            self.config.reduce_max_attempts
            if tip.kind is TaskKind.REDUCE
            else self.config.map_max_attempts
        )
        retry = tip.failed_attempt_count < cap and not job.state.terminal
        self.trace(
            "jt.tip-failed",
            tip=tip.tip_id,
            failures=tip.failed_attempt_count,
            retry=retry,
        )
        if retry:
            tip.set_state(TipState.UNASSIGNED)
        elif not job.state.terminal:
            job.mark_failed(self.sim.now)
            self.trace("jt.job-failed", job=job.job_id, culprit=tip.tip_id)
            for other in job.all_tips():
                if other.state.active and other.state is not TipState.MUST_KILL:
                    try:
                        other.request_kill(self.sim.now)
                    except TaskStateError:  # pragma: no cover - defensive
                        pass
                    self._wake(other)
            self._teardown_speculative(job)
            self._announce_completion(job)
        self.scheduler.job_updated(job)

    def _on_attempt_killed(self, tip: TaskInProgress, status: AttemptStatus) -> None:
        job = tip.job
        reschedule = job.state is JobState.RUNNING or job.state is JobState.PREP
        tip.mark_killed_attempt(progress_lost=status.progress, reschedule=reschedule)
        # Kills of a live job's tasks are preemption; kills mopping up a
        # failed/killed job are teardown collateral, not a preemption
        # cost -- keeping the causes apart is what makes the fault
        # studies' kill-vs-suspend wasted-work comparison honest.
        wasted_seconds = tip.work_seconds(status.progress)
        self.wasted.add(
            PREEMPTION_KILL if reschedule else JOB_TEARDOWN,
            wasted_seconds,
            tip.tip_id,
        )
        # A killed reducer's shuffle traffic died with it; suspended
        # reducers never land here (their fetches pause and resume), so
        # this column is where kill-vs-suspend diverge on the network.
        self.wasted.add_network_bytes(
            PREEMPTION_KILL if reschedule else JOB_TEARDOWN,
            status.discarded_network_bytes,
            tip.tip_id,
        )
        self.trace(
            "jt.tip-killed",
            tip=tip.tip_id,
            lost=round(status.progress, 3),
            # exact ledger charge, so kill-episode spans reconcile with
            # the wasted-work totals
            wasted=wasted_seconds,
            reschedule=reschedule,
        )
        self.scheduler.job_updated(job)

    def _maybe_complete_job(self, job: JobInProgress) -> None:
        if job.maybe_finish(self.sim.now):
            self._announce_completion(job)

    def _announce_completion(self, job: JobInProgress) -> None:
        self.job_index.remove(job)
        self.jobs_completed += 1
        self.trace("jt.job-done", job=job.job_id, name=job.spec.name)
        self.scheduler.job_completed(job)
        for callback in self._completion_callbacks:
            callback(job)

    # -- directive generation ---------------------------------------------------------------------

    def _preemption_actions(
        self,
        report: HeartbeatReport,
        actions: List[TrackerAction],
        free_map: int,
        free_reduce: int,
    ):
        now = self.sim.now
        for tip in self._tips_on_tracker(report.tracker):
            if tip.active_attempt_id is None:
                continue
            if tip.state is TipState.MUST_RESUME:
                kind_free = free_reduce if tip.kind is TaskKind.REDUCE else free_map
                if kind_free <= 0:
                    continue  # retry when a slot opens
                if not self._should_send(tip, now):
                    continue
                actions.append(ResumeTaskAction(attempt_id=tip.active_attempt_id))
                if tip.kind is TaskKind.REDUCE:
                    free_reduce -= 1
                else:
                    free_map -= 1
                tip.directive_sent_at = now
            elif tip.state is TipState.MUST_SUSPEND:
                if self._should_send(tip, now):
                    actions.append(SuspendTaskAction(attempt_id=tip.active_attempt_id))
                    tip.directive_sent_at = now
            elif tip.state is TipState.MUST_KILL:
                if self._should_send(tip, now):
                    actions.append(
                        KillTaskAction(
                            attempt_id=tip.active_attempt_id, reason="preempted"
                        )
                    )
                    tip.directive_sent_at = now
        return free_map, free_reduce

    def _should_send(self, tip: TaskInProgress, now: float) -> bool:
        """First send happens immediately; unanswered directives are
        re-sent after the resend timeout (lost-heartbeat defence)."""
        if tip.directive_sent_at is None:
            return True
        return now - tip.directive_sent_at >= self.config.suspend_resend_timeout

    def _on_tip_tracker_change(
        self,
        tip: TaskInProgress,
        old_host: Optional[str],
        new_host: Optional[str],
    ) -> None:
        """Keep the per-tracker tip index exact across every rebind
        (launch, requeue, speculative promotion, tracker loss)."""
        if old_host is not None:
            bucket = self._tips_by_tracker.get(old_host)
            if bucket is not None:
                bucket.pop(tip.tip_id, None)
        if new_host is not None:
            self._tips_by_tracker.setdefault(new_host, {})[tip.tip_id] = tip

    def _tips_on_tracker(self, tracker: str) -> List[TaskInProgress]:
        bucket = self._tips_by_tracker.get(tracker)
        if not bucket:
            return []
        return list(bucket.values())

    def _aux_launches(
        self,
        report: HeartbeatReport,
        actions: List[TrackerAction],
        free_map: int,
    ) -> int:
        """Launch job setup/cleanup tasks (highest priority).

        Walks only the jobs with a pending aux tip, kept in submission
        order by the standing index.  The verdict is re-read per job,
        since the list itself is only repaired at the start of a walk.
        """
        if free_map <= 0:
            return free_map
        index = self.job_index
        index.refresh_aux()
        for job in index.aux_jobs:
            if free_map <= 0:
                break
            aux_tip = job.pending_aux_tip()
            if aux_tip is not None:
                actions.append(self._make_launch(aux_tip, report.tracker))
                free_map -= 1
        return free_map

    def _register_descriptor(
        self, tip: TaskInProgress, attempt_id: str
    ) -> AttemptDescriptor:
        """Build (transformed spec) and register one attempt descriptor
        -- shared by primary and speculative launches so the two racing
        attempts always run identical specs."""
        spec = tip.spec
        for transform in self.spec_transformers:
            spec = transform(tip, spec)
        descriptor = AttemptDescriptor(
            attempt_id=attempt_id,
            tip_id=tip.tip_id,
            job_id=tip.job.job_id,
            spec=spec,
            is_setup=tip.role is TipRole.JOB_SETUP,
            is_cleanup=tip.role is TipRole.JOB_CLEANUP,
        )
        self._descriptors[attempt_id] = descriptor
        return descriptor

    def _make_launch(self, tip: TaskInProgress, tracker: str) -> LaunchTaskAction:
        attempt_id = tip.new_attempt_id(tracker)
        descriptor = self._register_descriptor(tip, attempt_id)
        tip.mark_launched(self.sim.now)
        return LaunchTaskAction(
            tip_id=tip.tip_id,
            attempt_id=attempt_id,
            is_setup=descriptor.is_setup,
            is_cleanup=descriptor.is_cleanup,
        )

    def _make_speculative_launch(
        self, tip: TaskInProgress, tracker: str
    ) -> LaunchTaskAction:
        """Launch a backup attempt without disturbing the primary."""
        attempt_id = tip.new_speculative_attempt_id(tracker, now=self.sim.now)
        self._register_descriptor(tip, attempt_id)
        self.trace("jt.speculate", tip=tip.tip_id, attempt=attempt_id, on=tracker)
        return LaunchTaskAction(tip_id=tip.tip_id, attempt_id=attempt_id)

    # -- introspection -------------------------------------------------------------------------------

    def running_jobs(self) -> List[JobInProgress]:
        """Jobs not yet terminal, submission order: the live-job
        index's membership, so a call costs O(live jobs) however many
        jobs the tracker has ever seen."""
        jobs = self.jobs
        return [jobs[job_id] for job_id in self.job_index.job_pos]

    def trace(self, label: str, **fields) -> None:
        """Record a JobTracker trace event."""
        self.sim.trace_log.record(self.sim.now, label, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"JobTracker(jobs={len(self.jobs)}, trackers={len(self.trackers)})"
        )
