"""TaskTrackers: per-node task execution daemons.

A TaskTracker owns its node's map/reduce slots, spawns child JVMs for
launch directives, relays the preemption signals, and reports status
through heartbeats -- periodic ones every
``HadoopConfig.heartbeat_interval`` seconds plus out-of-band ones
whenever a task finishes, is suspended, or is resumed (Hadoop's
``mapreduce.tasktracker.outofband.heartbeat`` behaviour, which the
paper's latency numbers rely on).

Slot rules implement the core of the suspend primitive: a suspended
attempt keeps its process but *releases its slot*; resuming requires
a free slot again.  Killed attempts hold their slot for the duration
of the kill-cleanup attempt ("kill runs a cleanup task to remove
temporary outputs of the killed task").
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import SlotExhaustedError, UnknownTaskError
from repro.hadoop.attempt import AttemptRole, TaskAttempt
from repro.hadoop.config import HadoopConfig
from repro.hadoop.heartbeat import (
    AttemptStatus,
    HeartbeatReport,
    HeartbeatResponse,
    KillTaskAction,
    LaunchTaskAction,
    ResumeTaskAction,
    SuspendTaskAction,
    TrackerAction,
)
from repro.hadoop.jvm import GcPolicy
from repro.hadoop.states import AttemptState
from repro.osmodel.kernel import NodeKernel
from repro.sim.engine import Simulation
from repro.workloads.jobspec import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.jobtracker import JobTracker


class TaskTracker:
    """One node's task execution daemon."""

    def __init__(
        self,
        sim: Simulation,
        kernel: NodeKernel,
        config: HadoopConfig,
        jobtracker: "JobTracker",
        gc_policy: GcPolicy = GcPolicy.HOARD,
    ):
        self.sim = sim
        self.kernel = kernel
        self.config = config
        self.jobtracker = jobtracker
        self.gc_policy = gc_policy
        self.host = kernel.config.hostname
        self._heartbeat_label = f"tt.heartbeat:{self.host}"
        self.map_slots = config.map_slots
        self.reduce_slots = config.reduce_slots
        self.attempts: Dict[str, TaskAttempt] = {}
        #: attempts that still belong in heartbeat reports: live ones
        #: plus terminal ones not yet reported.  ``attempts`` keeps the
        #: full history for lookups; iterating it per heartbeat made
        #: report building O(every attempt the node ever ran).  A dict
        #: (not a set) so iteration keeps deterministic launch order.
        self._reportable: Dict[str, TaskAttempt] = {}
        #: attempt ids (or cleanup tokens) holding a map slot
        self._map_slot_holders: Set[str] = set()
        self._reduce_slot_holders: Set[str] = set()
        #: terminal attempts not yet reported to the JobTracker
        self._unreported: List[str] = []
        self._sequence = 0
        self._heartbeat_event = None
        self._oob_pending = False
        #: phase-locked heartbeat grid (config.heartbeat_phases > 0):
        #: absolute time of the first grid point and the integer index
        #: of the next one.  Grid instants are computed as
        #: ``origin + interval * tick`` -- a pure function of the tick,
        #: never an accumulation -- so same-phase trackers produce the
        #: exact same float forever and their heartbeats coalesce.
        self._phase_origin: Optional[float] = None
        self._phase_tick = 0
        #: the parked run this idle phase-locked tracker's next periodic
        #: heartbeat rides (``_heartbeat_event`` is None meanwhile), its
        #: slot in the run's members, the run's whole-fire count when it
        #: joined or last settled (see :meth:`_settle`), and whether a
        #: wake there (see :meth:`wake`) makes that one walk
        self._run: Optional[ParkedRun] = None
        self._pos = 0
        self._mark = 0
        self._woken = False
        self.started = False
        #: callbacks fired with each TaskAttempt right after launch
        self.launch_callbacks: List = []
        jobtracker.register_tracker(self)

    # -- slot accounting ----------------------------------------------------------

    @property
    def free_map_slots(self) -> int:
        """Map slots not currently held."""
        return self.map_slots - len(self._map_slot_holders)

    @property
    def free_reduce_slots(self) -> int:
        """Reduce slots not currently held."""
        return self.reduce_slots - len(self._reduce_slot_holders)

    def _holders_for(self, kind: TaskKind) -> Set[str]:
        if kind is TaskKind.REDUCE:
            return self._reduce_slot_holders
        return self._map_slot_holders

    def _occupy_slot(self, attempt: TaskAttempt) -> None:
        holders = self._holders_for(attempt.spec.kind)
        limit = self.reduce_slots if attempt.spec.kind is TaskKind.REDUCE else self.map_slots
        if len(holders) >= limit:
            raise SlotExhaustedError(
                f"{self.host}: no free {attempt.spec.kind.value} slot for "
                f"{attempt.attempt_id}"
            )
        holders.add(attempt.attempt_id)

    def _release_slot(self, attempt: TaskAttempt) -> None:
        self._holders_for(attempt.spec.kind).discard(attempt.attempt_id)

    def suspended_attempts(self) -> List[TaskAttempt]:
        """Attempts currently suspended on this tracker."""
        return [
            a
            for a in self._reportable.values()
            if a.state is AttemptState.SUSPENDED
        ]

    # -- heartbeat loop ----------------------------------------------------------------

    def start(self, stagger: float = 0.0) -> None:
        """Begin the periodic heartbeat loop."""
        if self.started:
            return
        self.started = True
        if self.config.heartbeat_phases > 0:
            self._phase_origin = self.sim.now + stagger
            self._phase_tick = 0
        self._heartbeat_event = self.sim.schedule(
            stagger,
            self._heartbeat,
            label=self._heartbeat_label,
        )

    def request_oob_heartbeat(self) -> None:
        """Schedule an out-of-band heartbeat (coalesced)."""
        if not self.started or self._oob_pending:
            return
        self._oob_pending = True
        self._unpark()
        if self._heartbeat_event is not None:
            self._heartbeat_event.cancel()
        self._heartbeat_event = self.sim.schedule(
            self.config.oob_heartbeat_latency,
            self._heartbeat,
            True,
            label=f"tt.oob-heartbeat:{self.host}",
        )

    def _heartbeat(self, out_of_band: bool = False) -> None:
        self._oob_pending = False
        if not self._reportable and self.jobtracker.answer_idle(self):
            # Nothing to report and nothing the JobTracker could offer:
            # the heartbeat keeps its sequence number and its instant,
            # but builds no report and skips the walk.
            self._sequence += 1
            if self._phase_origin is not None:
                self._park()
                return
        else:
            response = self.jobtracker.heartbeat(self.build_report(out_of_band))
            # Directives take one RPC hop to act on.  An empty response
            # changes nothing on arrival, so it is not delivered at all.
            if response.actions:
                self.sim.schedule(
                    self.config.rpc_latency,
                    self._execute_actions,
                    response.actions,
                    label=f"tt.actions:{self.host}",
                )
        self._arm_periodic_heartbeat()

    def _arm_periodic_heartbeat(self) -> None:
        """Schedule the next periodic heartbeat.

        Historical mode (``heartbeat_phases == 0``): one interval from
        now, so out-of-band heartbeats permanently shift the phase.
        Phase-locked mode: at :meth:`_next_grid_instant`.
        """
        if self._phase_origin is None:
            self._heartbeat_event = self.sim.schedule(
                self.config.heartbeat_interval,
                self._heartbeat,
                label=self._heartbeat_label,
            )
            return
        self._heartbeat_event = self.sim.schedule_at(
            self._next_grid_instant(),
            self._heartbeat,
            label=self._heartbeat_label,
        )

    def _next_grid_instant(self) -> float:
        """The smallest grid instant past now + ``rpc_latency``, with
        ``_phase_tick`` advanced to it.

        The tracker snaps back onto its phase grid after every
        out-of-band excursion, so same-phase trackers keep sharing the
        exact same firing instants.  Directives granted against this
        heartbeat's report land one rpc hop out; reporting again before
        they occupy their slots would double-book them (the historical
        paths keep the same invariant: oob_heartbeat_latency >
        rpc_latency and periodic gaps of a full interval).  So the next
        grid point must clear now + rpc_latency, not merely now.
        """
        origin = self._phase_origin
        interval = self.config.heartbeat_interval
        tick = self._phase_tick = _grid_tick(
            origin, interval, self._phase_tick,
            self.sim.now + self.config.rpc_latency,
        )
        return origin + interval * tick

    def _park(self) -> None:
        """Idle on the phase grid: ride a parked run, not an own event.
        The newest run may stand for it when due at the same instant
        with nothing sequenced since (an own event would fire right
        after it); otherwise this tracker opens a new run."""
        when = self._next_grid_instant()
        jobtracker = self.jobtracker
        run = jobtracker.parked_run
        if (run is not None and run.handle.time == when
                and self.sim.is_latest(run.handle)):
            run.join(self)
        else:
            jobtracker.parked_run = ParkedRun(self, when)
        self._heartbeat_event = None

    def _unpark(self) -> None:
        """Leave the parked run (an out-of-band heartbeat or shutdown
        takes this tracker's next heartbeat off the grid)."""
        run = self._run
        if run is None:
            return
        self._settle()
        self._run = None
        self._woken = False
        run.members[self._pos] = None
        run.live -= 1
        handle = run.handle
        if not run.live:
            handle.cancel()
        elif handle.label == self._heartbeat_label:
            # The engine records the run's pop under its first live
            # member's label.
            handle.label = next(
                m._heartbeat_label for m in run.members if m is not None
            )

    def _settle(self) -> None:
        """Apply the whole fires of this tracker's run since it joined
        or last settled: one heartbeat each, the last at the run's last
        fire, with the phase tick the run advanced to."""
        run = self._run
        behind = run.fires - self._mark
        if behind:
            self._mark = run.fires
            self._sequence += behind
            self._phase_tick = run.tick
            self.jobtracker.last_heartbeat[self.host] = run.last_fire

    def _idle_fire(self) -> None:
        """A parked heartbeat that cannot walk: the idle answer's
        bookkeeping, then park again.  A parked node runs no attempt,
        so its suspended total cannot raise the peak: it is not summed."""
        self.jobtracker._note_heartbeat(self.host, 0)
        self._sequence += 1
        self._park()

    def wake(self) -> None:
        """A tip bound here awaits a directive (or a launch landed): a
        parked heartbeat must walk instead of answering idle."""
        run = self._run
        if run is not None:
            self._woken = True
            run.origin = None  # the next fire walks members one by one

    def build_report(self, out_of_band: bool = False) -> HeartbeatReport:
        """Snapshot status for the JobTracker."""
        self._sequence += 1
        statuses = []
        reported_terminal = []
        for attempt in self._reportable.values():
            state = attempt.state
            terminal = state.terminal
            if terminal:
                if attempt.attempt_id not in self._unreported:
                    continue
                reported_terminal.append(attempt.attempt_id)
            statuses.append(
                AttemptStatus(
                    attempt.attempt_id,
                    attempt.tip_id,
                    attempt.job_id,
                    state,
                    attempt.progress(),
                    # A live attempt has discarded nothing and was not
                    # OOM-killed (the JobTracker reads these two on
                    # FAILED/KILLED statuses only).
                    attempt.discarded_network_bytes() if terminal else 0,
                    terminal and attempt.oom_killed(),
                )
            )
        for attempt_id in reported_terminal:
            self._unreported.remove(attempt_id)
            self._reportable.pop(attempt_id, None)
        return HeartbeatReport(
            tracker=self.host,
            sequence=self._sequence,
            free_map_slots=self.free_map_slots,
            free_reduce_slots=self.free_reduce_slots,
            attempts=statuses,
            out_of_band=out_of_band,
            suspended_bytes=self.kernel.suspended_bytes(),
        )

    # -- directive execution ----------------------------------------------------------------

    def _execute_actions(self, actions: List[TrackerAction]) -> None:
        if not self.started:
            # The node died while the directives were on the wire; a
            # dead daemon launches nothing (the JobTracker requeues
            # through the expiry/restart paths).
            return
        for action in actions:
            if isinstance(action, LaunchTaskAction):
                self._launch(action)
            elif isinstance(action, SuspendTaskAction):
                self._suspend(action.attempt_id)
            elif isinstance(action, ResumeTaskAction):
                self._resume(action.attempt_id)
            elif isinstance(action, KillTaskAction):
                self._kill(action.attempt_id, action.reason)
            else:  # pragma: no cover - defensive
                raise UnknownTaskError(f"unknown action {action!r}")

    def _launch(self, action: LaunchTaskAction) -> None:
        descriptor = self.jobtracker.attempt_descriptor(action.attempt_id)
        role = AttemptRole.TASK
        if action.is_setup:
            role = AttemptRole.JOB_SETUP
        elif action.is_cleanup:
            role = AttemptRole.JOB_CLEANUP
        attempt = TaskAttempt(
            tracker=self,
            attempt_id=action.attempt_id,
            tip_id=action.tip_id,
            job_id=descriptor.job_id,
            spec=descriptor.spec,
            role=role,
            gc_policy=self.gc_policy,
        )
        self.attempts[attempt.attempt_id] = attempt
        self._reportable[attempt.attempt_id] = attempt
        self.wake()
        self._occupy_slot(attempt)
        attempt.launch()
        for callback in list(self.launch_callbacks):
            callback(attempt)

    def _suspend(self, attempt_id: str) -> None:
        attempt = self.attempts.get(attempt_id)
        if attempt is None or attempt.state.terminal:
            return  # completed in the meanwhile; heartbeat already told JT
        attempt.suspend()

    def _resume(self, attempt_id: str) -> None:
        attempt = self.attempts.get(attempt_id)
        if attempt is None or attempt.state is not AttemptState.SUSPENDED:
            return
        # Resume needs a slot back before the process may run.
        self._occupy_slot(attempt)
        attempt.resume()

    def _kill(self, attempt_id: str, reason: str) -> None:
        attempt = self.attempts.get(attempt_id)
        if attempt is None or attempt.state.terminal:
            return
        attempt.kill(reason)

    # -- attempt callbacks --------------------------------------------------------------------

    def attempt_suspended(self, attempt: TaskAttempt) -> None:
        """Stop landed: free the slot, tell the JobTracker soon."""
        self._release_slot(attempt)
        self.trace("attempt.suspended", attempt=attempt.attempt_id)
        self.request_oob_heartbeat()

    def attempt_resumed(self, attempt: TaskAttempt) -> None:
        """SIGCONT landed (slot was re-occupied before signalling)."""
        self.trace("attempt.resumed", attempt=attempt.attempt_id)
        self.request_oob_heartbeat()

    def attempt_finished(self, attempt: TaskAttempt) -> None:
        """Attempt reached a terminal state."""
        self._unreported.append(attempt.attempt_id)
        self.jobtracker.record_attempt_counters(attempt.job_id, attempt.counters)
        holders = self._holders_for(attempt.spec.kind)
        if attempt.state is AttemptState.KILLED and attempt.attempt_id in holders:
            # Hold the slot for the kill-cleanup attempt, then free it.
            self.trace("attempt.cleanup-start", attempt=attempt.attempt_id)
            self.sim.schedule(
                self.config.task_cleanup_duration,
                self._finish_cleanup,
                attempt,
                label=f"tt.cleanup:{attempt.attempt_id}",
            )
        else:
            self._release_slot(attempt)
        self.trace(
            "attempt.finished",
            attempt=attempt.attempt_id,
            state=attempt.state.value,
        )
        self.request_oob_heartbeat()

    def _finish_cleanup(self, attempt: TaskAttempt) -> None:
        self._release_slot(attempt)
        self.trace("attempt.cleanup-done", attempt=attempt.attempt_id)
        self.request_oob_heartbeat()

    # -- failure ----------------------------------------------------------------------------

    def shutdown(self) -> None:
        """The node dies: stop heartbeating, lose every process.

        Called by :meth:`repro.hadoop.jobtracker.JobTracker.tracker_lost`;
        nothing is reported back (the JobTracker requeues from its own
        bookkeeping, as real Hadoop does on tracker expiry).
        """
        self.started = False
        self._unpark()
        if self._heartbeat_event is not None:
            self._heartbeat_event.cancel()
            self._heartbeat_event = None
        for attempt in list(self.attempts.values()):
            if attempt.state.terminal or attempt.process is None:
                continue
            if not attempt.process.alive:
                continue  # already dead (repeated shutdown after a crash)
            # The process dies with the node; silence the normal
            # reporting path first.
            attempt.process.exit_callbacks.clear()
            attempt.kill("tracker lost")
        self._map_slot_holders.clear()
        self._reduce_slot_holders.clear()
        self.trace("tt.shutdown")

    def restart(self, stagger: float = 0.0) -> None:
        """The daemon comes back after a crash.

        A restarted TaskTracker has no task state (real Hadoop loses
        the in-memory attempt table with the process), so the attempt
        registry is dropped and the JobTracker is told to requeue
        anything it still believes runs here before heartbeats resume.
        """
        if self.started:
            return
        # Requeue first, while the old attempt records still exist --
        # the JobTracker reads their final progress for wasted-work
        # accounting -- then drop the state the fresh daemon lacks.
        self.jobtracker.handle_tracker_restart(self)
        self.attempts.clear()
        self._reportable.clear()
        self._unreported.clear()
        self._map_slot_holders.clear()
        self._reduce_slot_holders.clear()
        self._oob_pending = False
        # The phase grid restarts from the resurrection instant.
        self._phase_origin = None
        self._phase_tick = 0
        self.trace("tt.restart")
        self.start(stagger=stagger)

    # -- misc -------------------------------------------------------------------------------

    def attempt(self, attempt_id: str) -> TaskAttempt:
        """Look up an attempt by id."""
        if attempt_id not in self.attempts:
            raise UnknownTaskError(f"{self.host} has no attempt {attempt_id}")
        return self.attempts[attempt_id]

    def trace(self, label: str, **fields) -> None:
        """Record a trace event tagged with this tracker's host."""
        self.sim.trace_log.record(self.sim.now, label, host=self.host, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TaskTracker(host={self.host!r}, "
            f"free_slots={self.free_map_slots}/{self.map_slots})"
        )


def _grid_tick(origin: float, interval: float, tick: int,
               horizon: float) -> int:
    """The first tick from ``tick`` on whose grid instant
    ``origin + interval * tick`` lies past ``horizon``."""
    while origin + interval * tick <= horizon:
        tick += 1
    return tick


class ParkedRun:
    """One engine event standing for the periodic heartbeats of idle
    phase-locked trackers due back to back at one grid instant.

    Each member counts as one fired event (the engine's pop for the
    first live member, :meth:`Simulation.note_fired` for the others).
    When the JobTracker offers nothing, no member was woken and all
    members share one phase origin, the run fires whole
    (:meth:`_fire_whole`): it re-arms itself at the next grid instant,
    and each member's ``_sequence``, ``_phase_tick`` and
    ``last_heartbeat`` follow lazily from ``fires``, ``tick`` and
    ``last_fire`` (``TaskTracker._settle``).  Otherwise every member
    leaves and walks, or gets the idle answer's bookkeeping, one by one.
    """

    __slots__ = ("jobtracker", "handle", "members", "live", "origin",
                 "tick", "fires", "last_fire")

    def __init__(self, tracker: TaskTracker, time: float):
        self.jobtracker = tracker.jobtracker
        #: members in arm order; a slot is None once its member left
        self.members: List[Optional[TaskTracker]] = []
        #: members still parked here (the handle is cancelled at zero)
        self.live = 0
        #: the members' shared phase origin, None once they differ or
        #: one was woken (the run then never fires whole again)
        self.origin = tracker._phase_origin
        #: the grid tick of the pending instant, the whole fires so
        #: far and the time of the last one
        self.tick = tracker._phase_tick
        self.fires = 0
        self.last_fire = 0.0
        self.join(tracker)
        self.handle = tracker.sim.schedule_at(
            time, self.fire, label=tracker._heartbeat_label
        )

    def join(self, tracker: TaskTracker) -> None:
        """Park ``tracker`` here, after the current members."""
        tracker._run = self
        tracker._pos = len(self.members)
        tracker._mark = self.fires
        self.members.append(tracker)
        self.live += 1
        if tracker._phase_origin != self.origin:
            self.origin = None

    def fire(self) -> None:
        jobtracker = self.jobtracker
        # Idle members change no state the predicate reads, so it is
        # asked again only after a member walked.
        offers_nothing = jobtracker.offers_nothing()
        if offers_nothing and self.origin is not None:
            self._fire_whole()
            return
        sim = jobtracker.sim
        first = True
        for tracker in self.members:
            if tracker is None:
                continue
            tracker._settle()
            tracker._run = None
            if first:
                first = False
            else:
                sim.note_fired(tracker._heartbeat_label)
            if not offers_nothing or tracker._woken:
                tracker._woken = False
                tracker._heartbeat()
                offers_nothing = jobtracker.offers_nothing()
            else:
                tracker._idle_fire()

    def _fire_whole(self) -> None:
        """Every member's idle heartbeat at once: the count and
        bookkeeping the member loop would make, then re-arm at the next
        grid instant -- or join the newest run due there, as each
        member re-parking one by one would."""
        jobtracker = self.jobtracker
        sim = jobtracker.sim
        config = jobtracker.config
        jobtracker.heartbeats_received += self.live
        sim.note_fired_many(self.live - 1, islice(
            (m._heartbeat_label for m in self.members if m is not None),
            1, None,
        ))
        self.fires += 1
        self.last_fire = sim.now
        self.tick = _grid_tick(self.origin, config.heartbeat_interval,
                               self.tick, sim.now + config.rpc_latency)
        when = self.origin + config.heartbeat_interval * self.tick
        run = jobtracker.parked_run
        if (run is not None and run.handle.time == when
                and sim.is_latest(run.handle)):
            for tracker in self.members:
                if tracker is not None:
                    tracker._settle()
                    run.join(tracker)
            return
        self.handle = sim.schedule_at(when, self.fire,
                                      label=self.handle.label)
        jobtracker.parked_run = self
        if len(self.members) > 2 * self.live:
            # Drop the empty slots; at least half the list was empty.
            self.members = [m for m in self.members if m is not None]
            for pos, tracker in enumerate(self.members):
                tracker._pos = pos
