"""Task attempts: one execution of a task on one TaskTracker.

The attempt owns the child JVM process and translates preemption
directives into POSIX signals -- the mechanism at the core of the
paper:

    "to suspend and resume tasks, our preemption primitive uses the
    standard POSIX SIGTSTP and SIGCONT signals."

State changes of the underlying process (stopped, resumed, exited)
bubble up to the TaskTracker, which frees/occupies slots and requests
out-of-band heartbeats.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ProcessStateError, TaskStateError
from repro.hadoop.config import HadoopConfig
from repro.hadoop.counters import Counters
from repro.hadoop.jvm import ChildJVM, GcPolicy
from repro.hadoop.states import AttemptState
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.process import ExitReason, OSProcess
from repro.osmodel.signals import Signal
from repro.workloads.jobspec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.tasktracker import TaskTracker


_SUCCEEDED = AttemptState.SUCCEEDED


class AttemptRole(enum.Enum):
    """What the attempt executes."""

    TASK = "task"
    JOB_SETUP = "job_setup"
    JOB_CLEANUP = "job_cleanup"


class TaskAttempt:
    """One attempt of a task-in-progress, bound to a TaskTracker."""

    def __init__(
        self,
        tracker: "TaskTracker",
        attempt_id: str,
        tip_id: str,
        job_id: str,
        spec: TaskSpec,
        role: AttemptRole = AttemptRole.TASK,
        gc_policy: GcPolicy = GcPolicy.HOARD,
    ):
        self.tracker = tracker
        self.attempt_id = attempt_id
        self.tip_id = tip_id
        self.job_id = job_id
        self.spec = spec
        self.role = role
        self.gc_policy = gc_policy
        self.state = AttemptState.STARTING
        self.jvm: Optional[ChildJVM] = None
        self.counters = Counters()
        self.launched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.suspend_count = 0
        self.resume_count = 0
        self._final_progress = 0.0

    # -- identity helpers ------------------------------------------------------

    @property
    def sim(self):
        """The shared simulation clock."""
        return self.tracker.sim

    @property
    def kernel(self) -> NodeKernel:
        """The node kernel this attempt runs on."""
        return self.tracker.kernel

    @property
    def config(self) -> HadoopConfig:
        """Cluster Hadoop configuration."""
        return self.tracker.config

    @property
    def pid(self) -> Optional[int]:
        """Child JVM pid (None before launch)."""
        return self.jvm.pid if self.jvm else None

    @property
    def process(self) -> Optional[OSProcess]:
        """Child JVM process (None before launch)."""
        return self.jvm.process if self.jvm else None

    # -- lifecycle -----------------------------------------------------------------

    def launch(self) -> None:
        """Spawn the child JVM and start executing."""
        if self.jvm is not None:
            raise TaskStateError(f"{self.attempt_id} already launched")
        extra = 0.0
        if self.role is AttemptRole.JOB_SETUP:
            extra = self.config.job_setup_duration
        elif self.role is AttemptRole.JOB_CLEANUP:
            extra = self.config.job_cleanup_duration
        self.jvm = ChildJVM(
            self.kernel,
            self.config,
            self.spec,
            name=self.attempt_id,
            gc_policy=self.gc_policy,
            extra_work_seconds=extra,
        )
        proc = self.jvm.process
        proc.on_exit(self._on_proc_exit)
        proc.on_stop(self._on_proc_stop)
        proc.on_resume(self._on_proc_resume)
        self.launched_at = self.sim.now
        self.state = AttemptState.RUNNING
        self.jvm.start()
        self.tracker.trace("attempt.launch", attempt=self.attempt_id)

    def progress(self) -> float:
        """Task progress in [0, 1].

        A live attempt's is the work engine's, evaluated in one call
        (:meth:`repro.osmodel.work.WorkEngine.progress`): every busy
        tracker's heartbeat reports it for each attempt.
        """
        state = self.state
        if state is _SUCCEEDED:
            return 1.0
        jvm = self.jvm
        if jvm is None:
            return 0.0
        if state.terminal:
            return self._final_progress
        return jvm.engine.progress()

    # -- preemption primitives (signal side) ------------------------------------------

    def suspend(self) -> None:
        """Deliver SIGTSTP.  The stop lands after the handler latency;
        :meth:`_on_proc_stop` confirms it."""
        if self.state not in (AttemptState.RUNNING, AttemptState.STARTING):
            return  # completed or already suspended in the meanwhile
        self.state = AttemptState.SUSPENDING
        self.kernel.signal(self.pid, Signal.SIGTSTP)

    def resume(self) -> None:
        """Deliver SIGCONT; :meth:`_on_proc_resume` confirms."""
        if self.state is not AttemptState.SUSPENDED:
            return
        self.kernel.signal(self.pid, Signal.SIGCONT)

    def kill(self, reason: str = "") -> None:
        """Deliver SIGKILL (works on running and suspended attempts)."""
        if self.state.terminal or self.jvm is None:
            return
        try:
            self.kernel.signal(self.pid, Signal.SIGKILL)
        except ProcessStateError:  # pragma: no cover - defensive
            pass

    # -- process callbacks ----------------------------------------------------------------

    def _on_proc_stop(self, proc: OSProcess) -> None:
        if self.state is not AttemptState.SUSPENDING:
            # A stop we did not ask for (e.g. direct kernel signal in
            # tests); account it the same way.
            if self.state.terminal:
                return
        self.state = AttemptState.SUSPENDED
        self.suspend_count += 1
        self.counters.increment("task", "suspensions")
        self.tracker.attempt_suspended(self)

    def _on_proc_resume(self, proc: OSProcess) -> None:
        if self.state is not AttemptState.SUSPENDED:
            return
        self.state = AttemptState.RUNNING
        self.resume_count += 1
        self.counters.increment("task", "resumes")
        self.tracker.attempt_resumed(self)

    def _on_proc_exit(self, proc: OSProcess, reason: ExitReason) -> None:
        self._final_progress = 0.0 if self.jvm is None else self.jvm.progress()
        self.finished_at = self.sim.now
        if reason is ExitReason.EXITED:
            self.state = AttemptState.SUCCEEDED
        elif reason is ExitReason.KILLED:
            self.state = AttemptState.KILLED
        else:
            self.state = AttemptState.FAILED
        self._finalize_counters()
        self.tracker.attempt_finished(self)

    def _finalize_counters(self) -> None:
        """Fill the task counters at attempt end (Hadoop reports them
        with the final status update)."""
        self.counters.set_value(
            "task",
            "input_bytes",
            int(self._final_progress * self.spec.input_bytes),
        )
        fetched = self.fetched_network_bytes()
        if fetched:
            self.counters.set_value("task", "shuffle_bytes_fetched", fetched)
        discarded = self.discarded_network_bytes()
        if discarded:
            self.counters.set_value(
                "task", "network_bytes_discarded", discarded
            )
        self.counters.set_value(
            "task", "swapped_bytes", self.lifetime_swapped_bytes()
        )
        if self.oom_killed():
            self.counters.increment("task", "oom_kills")
        if self.jvm is not None:
            self.counters.set_value(
                "task",
                "fault_in_ms",
                int(self.jvm.engine.fault_in_seconds * 1000),
            )
            self.counters.set_value(
                "task",
                "stopped_ms",
                int(self.jvm.process.stopped_seconds * 1000),
            )

    # -- network introspection (the shuffle study's metric) --------------------------------

    def fetched_network_bytes(self) -> int:
        """Bytes this attempt pulled over the fabric, settled to now."""
        if self.jvm is None:
            return 0
        from repro.netmodel.fetch import NetworkFetchItem

        return int(
            sum(
                item.fetched_bytes()
                for item in self.jvm.engine.plan
                if isinstance(item, NetworkFetchItem)
            )
        )

    def discarded_network_bytes(self) -> int:
        """Network traffic a kill (or failure) threw away.

        Every shuffle byte the attempt moved is lost with it -- the
        completed fetches die with the attempt's local state, and the
        in-flight ones were frozen at abort time.  Zero for succeeded
        (nothing discarded) and live attempts.
        """
        if self.jvm is None or not self.state.terminal:
            return 0
        if self.state is AttemptState.SUCCEEDED:
            return 0
        return self.fetched_network_bytes()

    # -- memory introspection (Figure 4's metric) ------------------------------------------

    def oom_killed(self) -> bool:
        """True when this attempt's JVM was reaped by the OOM killer."""
        return (
            self.process is not None
            and self.process.exit_reason is ExitReason.OOM
        )

    def current_swapped_bytes(self) -> int:
        """Bytes of this attempt's image currently in swap."""
        if self.pid is None:
            return 0
        return self.kernel.vmm.swap.swapped_bytes(self.pid)

    def lifetime_swapped_bytes(self) -> int:
        """Bytes ever paged out for this attempt -- what Figure 4 plots."""
        if self.pid is None:
            return 0
        return self.kernel.vmm.swap.lifetime_swapped_bytes(self.pid)

    def resident_bytes(self) -> int:
        """Current resident set size of the child JVM."""
        if self.process is None:
            return 0
        return self.process.image.resident

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TaskAttempt({self.attempt_id}, {self.state.value})"
