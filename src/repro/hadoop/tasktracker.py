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

from array import array
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
from repro.hadoop.states import (
    ATTEMPT_STATE_CODE,
    ATTEMPT_STATE_CODES,
    AttemptState,
)
from repro.osmodel.kernel import NodeKernel
from repro.sim.engine import Simulation
from repro.workloads.jobspec import TaskKind, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.jobtracker import JobTracker

#: all heartbeat events share one batch key, so same-instant heartbeats
#: from phase-locked trackers coalesce into one engine batch
HEARTBEAT_BATCH_KEY = "hb"


class AttemptStateTable:
    """Array-of-struct attempt state for one TaskTracker incarnation.

    One byte of state code per attempt ever launched on the tracker,
    plus exact per-state population counts.  Attempts write through on
    every transition (:meth:`repro.hadoop.attempt.TaskAttempt._set_state`),
    which makes the per-heartbeat suspended-attempt count an O(1) array
    read instead of a scan over the live attempt set.  A tracker
    restart installs a *fresh* table; attempts of the dead incarnation
    keep their reference to the old one, so late transitions from
    stranded processes cannot corrupt the new daemon's counts.
    """

    __slots__ = ("codes", "attempt_ids", "counts")

    def __init__(self):
        self.codes = array("B")
        self.attempt_ids: List[str] = []
        self.counts = [0] * len(ATTEMPT_STATE_CODES)

    def register(self, attempt_id: str, state: AttemptState) -> int:
        """Add an attempt; returns its slot index."""
        code = ATTEMPT_STATE_CODE[state]
        index = len(self.codes)
        self.codes.append(code)
        self.attempt_ids.append(attempt_id)
        self.counts[code] += 1
        return index

    def transition(self, index: int, old: AttemptState, new: AttemptState) -> None:
        """Move one attempt's code between states."""
        old_code = ATTEMPT_STATE_CODE[old]
        new_code = ATTEMPT_STATE_CODE[new]
        self.codes[index] = new_code
        self.counts[old_code] -= 1
        self.counts[new_code] += 1

    def count(self, state: AttemptState) -> int:
        """Current number of attempts in ``state``."""
        return self.counts[ATTEMPT_STATE_CODE[state]]

    def __len__(self) -> int:
        return len(self.codes)


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
        #: per-incarnation attempt state codes + per-state counts;
        #: replaced wholesale on restart (see AttemptStateTable)
        self.attempt_table = AttemptStateTable()
        #: phase-locked heartbeat grid (config.heartbeat_phases > 0):
        #: absolute time of the first grid point and the integer index
        #: of the next one.  Grid instants are computed as
        #: ``origin + interval * tick`` -- a pure function of the tick,
        #: never an accumulation -- so same-phase trackers produce the
        #: exact same float forever and their heartbeats coalesce.
        self._phase_origin: Optional[float] = None
        self._phase_tick = 0
        self.started = False
        self.heartbeats_sent = 0
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
            label=f"tt.heartbeat:{self.host}",
            batch_key=HEARTBEAT_BATCH_KEY,
        )

    def request_oob_heartbeat(self) -> None:
        """Schedule an out-of-band heartbeat (coalesced)."""
        if not self.started or self._oob_pending:
            return
        self._oob_pending = True
        if self._heartbeat_event is not None:
            self._heartbeat_event.cancel()
        self._heartbeat_event = self.sim.schedule(
            self.config.oob_heartbeat_latency,
            self._heartbeat,
            True,
            label=f"tt.oob-heartbeat:{self.host}",
            batch_key=HEARTBEAT_BATCH_KEY,
        )

    def _heartbeat(self, out_of_band: bool = False) -> None:
        self._oob_pending = False
        report = self.build_report(out_of_band)
        self.heartbeats_sent += 1
        response = self.jobtracker.heartbeat(report)
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
        Phase-locked mode: the smallest grid instant strictly after
        now, so the tracker snaps back onto its phase grid after every
        out-of-band excursion and same-phase trackers keep sharing the
        exact same firing instants.
        """
        origin = self._phase_origin
        if origin is None:
            self._heartbeat_event = self.sim.schedule(
                self.config.heartbeat_interval,
                self._heartbeat,
                label=f"tt.heartbeat:{self.host}",
                batch_key=HEARTBEAT_BATCH_KEY,
            )
            return
        interval = self.config.heartbeat_interval
        tick = self._phase_tick
        # Directives granted against this heartbeat's report land one
        # rpc hop out; reporting again before they occupy their slots
        # would double-book them (the historical paths keep the same
        # invariant: oob_heartbeat_latency > rpc_latency and periodic
        # gaps of a full interval).  So the next grid point must clear
        # now + rpc_latency, not merely now.
        horizon = self.sim.now + self.config.rpc_latency
        while origin + interval * tick <= horizon:
            tick += 1
        self._phase_tick = tick
        self._heartbeat_event = self.sim.schedule_at(
            origin + interval * tick,
            self._heartbeat,
            label=f"tt.heartbeat:{self.host}",
            batch_key=HEARTBEAT_BATCH_KEY,
        )

    def build_report(self, out_of_band: bool = False) -> HeartbeatReport:
        """Snapshot status for the JobTracker."""
        self._sequence += 1
        statuses = []
        reported_terminal = []
        for attempt in self._reportable.values():
            if attempt.state.terminal and attempt.attempt_id not in self._unreported:
                continue
            statuses.append(
                AttemptStatus(
                    attempt_id=attempt.attempt_id,
                    tip_id=attempt.tip_id,
                    job_id=attempt.job_id,
                    state=attempt.state,
                    progress=attempt.progress(),
                    resident_bytes=attempt.resident_bytes(),
                    swapped_bytes=attempt.current_swapped_bytes(),
                    discarded_network_bytes=attempt.discarded_network_bytes(),
                    oom_killed=attempt.oom_killed(),
                )
            )
            if attempt.state.terminal:
                reported_terminal.append(attempt.attempt_id)
        for attempt_id in reported_terminal:
            self._unreported.remove(attempt_id)
            self._reportable.pop(attempt_id, None)
        return HeartbeatReport(
            tracker=self.host,
            sequence=self._sequence,
            free_map_slots=self.free_map_slots,
            free_reduce_slots=self.free_reduce_slots,
            attempts=statuses,
            # O(1) table read; equals len(self.suspended_attempts())
            # because SUSPENDED is never terminal, so every suspended
            # attempt is still reportable.
            suspended_count=self.attempt_table.count(AttemptState.SUSPENDED),
            out_of_band=out_of_band,
            headroom=self.kernel.memory_headroom(),
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
        # Fresh incarnation, fresh state table: stranded attempts of
        # the dead daemon keep their reference to the old table and
        # cannot perturb the new counts.  The phase grid restarts from
        # the resurrection instant.
        self.attempt_table = AttemptStateTable()
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
