"""Hadoop engine configuration.

Defaults follow Hadoop 1 conventions on a small cluster: 3-second
heartbeats (plus out-of-band heartbeats when tasks complete), one map
slot per node for the paper's microbenchmark, job setup/cleanup tasks
enabled, and a per-task JVM whose base footprint models "the Hadoop
execution engine (i.e., JVM, I/O buffers, overhead due to sorting,
etc.)".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GB, MB


@dataclass
class HadoopConfig:
    """Cluster-wide Hadoop knobs.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between periodic TaskTracker heartbeats
        (``mapreduce.jobtracker.heartbeat.interval.min`` is 3 s for
        clusters under 300 nodes).
    oob_heartbeat_latency:
        Delay of an out-of-band heartbeat after a task state change
        (``mapreduce.tasktracker.outofband.heartbeat`` behaviour).
    rpc_latency:
        One-way latency applied to JobTracker directives before the
        TaskTracker acts on them.
    map_slots / reduce_slots:
        Slots per TaskTracker.  The paper's microbenchmark uses a
        single map slot so tl and th contend for it.
    jvm_startup_time:
        Seconds to fork and boot a child JVM.
    jvm_base_memory:
        Resident footprint of the execution engine itself.
    task_finalize_time:
        Fixed bookkeeping time at the end of a stateless task.
    task_cleanup_duration:
        Duration of the cleanup attempt run for a killed task ("kill
        runs a cleanup task to remove temporary outputs of the killed
        task").
    job_setup_duration / job_cleanup_duration:
        Durations of the per-job setup and cleanup tasks Hadoop 1
        schedules around the real work.
    run_job_setup_cleanup:
        Disable to model ``mapred.committer``-less jobs (used by some
        unit tests to shorten scenarios).
    suspend_resend_timeout:
        If a suspend/resume directive is not confirmed within this
        many seconds the JobTracker re-piggybacks it (lost-heartbeat
        defence).
    max_suspended_per_tracker:
        Cap on concurrently suspended tasks per TaskTracker, enforcing
        Section III-A's constraint that aggregate suspended memory
        must fit in swap.
    child_heap_limit:
        Upper bound a task may allocate (``mapred.child.java.opts``);
        the paper notes the 2 GB worst case "requires an ad hoc change
        to the Hadoop configuration".
    tracker_expiry_interval:
        Seconds without a heartbeat after which the JobTracker declares
        a TaskTracker lost and requeues its work
        (``mapred.tasktracker.expiry.interval``, 600 s in stock
        Hadoop 1).  Fault studies shrink this for snappier recovery.
    map_max_attempts / reduce_max_attempts:
        Per-task retry caps (``mapred.map.max.attempts`` /
        ``mapred.reduce.max.attempts``).  A task whose attempt count
        reaches the cap fails its job.
    tracker_blacklist_threshold:
        Task failures on one TaskTracker after which it is blacklisted
        and stops receiving new work (``mapred.max.tracker.failures``).
        0 disables blacklisting.
    rerun_completed_maps_on_loss:
        When a TaskTracker is lost, re-execute the completed map tasks
        whose output lived on it (real Hadoop does this because map
        output is served from tracker-local disk).
    speculative_execution:
        Enable JobTracker-side backup attempts for stragglers
        (``mapred.map.tasks.speculative.execution``).
    speculative_lag:
        Minimum seconds an attempt must have run before it can be
        considered a straggler.
    speculative_slowness:
        An attempt is a straggler when its progress rate falls below
        this fraction of the mean progress rate of its job's running
        peers.  Suspended attempts are never stragglers: their
        progress is frozen by design, not by slowness.
    """

    heartbeat_interval: float = 3.0
    oob_heartbeat_latency: float = 0.1
    rpc_latency: float = 0.05
    map_slots: int = 1
    reduce_slots: int = 1
    jvm_startup_time: float = 1.2
    jvm_base_memory: int = 192 * MB
    task_finalize_time: float = 0.3
    task_cleanup_duration: float = 2.0
    job_setup_duration: float = 1.5
    job_cleanup_duration: float = 1.5
    run_job_setup_cleanup: bool = True
    suspend_resend_timeout: float = 10.0
    max_suspended_per_tracker: int = 4
    child_heap_limit: int = 3 * GB
    sort_rate: float = 40 * MB
    #: multiplicative jitter on task service times (the paper's 20-run
    #: averages stay within +/-5% of the mean; this reproduces that
    #: spread across seeds)
    task_time_jitter: float = 0.03
    #: extra heap a hoarding collector keeps on top of a stateful
    #: task's live state (Section V-B: collectors that do not release
    #: memory inflate the suspended footprint); 0 disables the effect
    jvm_heap_slack: float = 0.0
    tracker_expiry_interval: float = 600.0
    map_max_attempts: int = 4
    reduce_max_attempts: int = 4
    tracker_blacklist_threshold: int = 4
    rerun_completed_maps_on_loss: bool = True
    speculative_execution: bool = False
    speculative_lag: float = 30.0
    speculative_slowness: float = 0.5
    #: phase-locked heartbeat grid: with P > 0, tracker i heartbeats on
    #: the exact instant grid ``0.05 + 0.11*(i % P) + k*interval`` and
    #: snaps back to its grid line after every out-of-band heartbeat,
    #: so same-phase trackers share each instant forever.  0 keeps the
    #: historical free-drifting stagger.
    heartbeat_phases: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on nonsense."""
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.map_slots < 1 or self.reduce_slots < 0:
            raise ConfigurationError("slot counts out of range")
        for name in (
            "oob_heartbeat_latency",
            "rpc_latency",
            "jvm_startup_time",
            "task_finalize_time",
            "task_cleanup_duration",
            "job_setup_duration",
            "job_cleanup_duration",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} may not be negative")
        if self.jvm_base_memory < 0 or self.child_heap_limit <= 0:
            raise ConfigurationError("memory limits out of range")
        if self.max_suspended_per_tracker < 0:
            raise ConfigurationError("max_suspended_per_tracker out of range")
        if self.sort_rate <= 0:
            raise ConfigurationError("sort_rate must be positive")
        if not 0 <= self.task_time_jitter < 1:
            raise ConfigurationError("task_time_jitter must be in [0, 1)")
        if self.jvm_heap_slack < 0:
            raise ConfigurationError("jvm_heap_slack may not be negative")
        if self.tracker_expiry_interval <= 0:
            raise ConfigurationError("tracker_expiry_interval must be positive")
        if self.map_max_attempts < 1 or self.reduce_max_attempts < 1:
            raise ConfigurationError("max attempt caps must be at least 1")
        if self.tracker_blacklist_threshold < 0:
            raise ConfigurationError("tracker_blacklist_threshold out of range")
        if self.speculative_lag < 0:
            raise ConfigurationError("speculative_lag may not be negative")
        if not 0 < self.speculative_slowness <= 1:
            raise ConfigurationError("speculative_slowness must be in (0, 1]")
        if self.heartbeat_phases < 0:
            raise ConfigurationError("heartbeat_phases out of range")
        if (
            self.heartbeat_phases > 0
            and 0.05 + 0.11 * (self.heartbeat_phases - 1)
            >= self.heartbeat_interval
        ):
            raise ConfigurationError(
                "heartbeat_phases spread the phase offsets past one "
                "heartbeat_interval; use fewer phases or a longer interval"
            )

    def replace(self, **overrides) -> "HadoopConfig":
        """Return a copy with the given fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **overrides)
