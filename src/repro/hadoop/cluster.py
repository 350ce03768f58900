"""Cluster facade: wires the simulator, OS kernels, HDFS and Hadoop.

:class:`HadoopCluster` is the main entry point of the library's
simulation side::

    from repro import MB, HadoopCluster, two_job_microbenchmark

    cluster = HadoopCluster(num_nodes=1, seed=7)
    tl, th = two_job_microbenchmark()
    cluster.create_input("/data/tl", 512 * MB)
    job_l = cluster.submit_job(tl)
    cluster.run_until_jobs_complete()
    print(job_l.sojourn_time)

The experiment harness builds on the helpers here: exact progress
watching, attempt lookup by job name, and memory introspection.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError, UnknownJobError
from repro.hadoop.attempt import AttemptRole, TaskAttempt
from repro.hadoop.config import HadoopConfig
from repro.hadoop.job import JobInProgress
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.jvm import GcPolicy
from repro.hadoop.states import AttemptState
from repro.hadoop.tasktracker import TaskTracker
from repro.hadoop.task import TaskInProgress, TipRole
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.topology import RackTopology
from repro.netmodel.config import NetConfig
from repro.netmodel.fabric import Fabric
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.sim.engine import Simulation
from repro.workloads.jobspec import JobSpec, TaskKind, TaskSpec


class _ProgressWatchArmer:
    """Launch callback that arms a progress watch on the first task
    attempt of a named job (picklable replacement for a closure)."""

    __slots__ = ("cluster", "job_name", "fraction", "callback", "done")

    def __init__(self, cluster: "HadoopCluster", job_name: str,
                 fraction: float, callback: Callable[[], None]):
        self.cluster = cluster
        self.job_name = job_name
        self.fraction = fraction
        self.callback = callback
        self.done = False

    def __call__(self, new_attempt: TaskAttempt) -> None:
        if self.done or new_attempt.role is not AttemptRole.TASK:
            return
        try:
            job = self.cluster.job_by_name(self.job_name)
        except UnknownJobError:
            return
        if new_attempt.job_id != job.job_id:
            return
        self.done = True
        new_attempt.jvm.engine.when_progress(self.fraction, self.callback)


class HadoopCluster:
    """A simulated Hadoop 1 cluster."""

    def __init__(
        self,
        num_nodes: int = 1,
        node_config: Optional[NodeConfig] = None,
        hadoop_config: Optional[HadoopConfig] = None,
        scheduler=None,
        seed: int = 0,
        trace: bool = True,
        gc_policy: GcPolicy = GcPolicy.HOARD,
        replication: int = 1,
        racks: int = 1,
        net_config: Optional[NetConfig] = None,
        profile: bool = False,
    ):
        if num_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        if racks < 1:
            raise ConfigurationError("a cluster needs at least one rack")
        self.sim = Simulation(seed=seed, trace=trace, profile=profile)
        self.hadoop_config = hadoop_config or HadoopConfig()
        base_node_config = node_config or NodeConfig()
        if scheduler is None:
            from repro.schedulers.fifo import FifoScheduler

            scheduler = FifoScheduler()
        self.scheduler = scheduler
        self.jobtracker = JobTracker(self.sim, self.hadoop_config, scheduler)
        self.topology = RackTopology()
        self.namenode = NameNode(self.topology, replication=replication)
        self.kernels: Dict[str, NodeKernel] = {}
        self.trackers: Dict[str, TaskTracker] = {}
        self._started = False
        #: submissions scheduled by :meth:`submit_job` but not yet made
        self._deferred_submissions = 0

        for i in range(num_nodes):
            hostname = f"node{i:02d}"
            rack = f"/rack{i % racks}"
            kernel = NodeKernel(
                self.sim, base_node_config.replace(hostname=hostname)
            )
            self.kernels[hostname] = kernel
            datanode = DataNode(kernel)
            self.namenode.register_datanode(datanode, rack=rack)
            tracker = TaskTracker(
                self.sim, kernel, self.hadoop_config, self.jobtracker, gc_policy
            )
            self.trackers[hostname] = tracker

        #: the shared-bandwidth network fabric; None (the default)
        #: keeps the historical network-free model -- shuffles and
        #: remote reads stay local disk stand-ins
        self.fabric: Optional[Fabric] = None
        if net_config is not None:
            self.fabric = Fabric(self.sim, self.topology, net_config)
            for kernel in self.kernels.values():
                kernel.fabric = self.fabric
            self.jobtracker.spec_transformers.append(self._attach_shuffle_sources)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start all TaskTracker heartbeat loops (staggered) and the
        JobTracker's heartbeat-timeout monitor."""
        if self._started:
            return
        self._started = True
        phases = self.hadoop_config.heartbeat_phases
        for i, tracker in enumerate(self.trackers.values()):
            # Historically every tracker gets a distinct stagger (free
            # drift); with heartbeat_phases > 0 the staggers wrap onto P
            # shared phase offsets, so trackers of the same phase
            # heartbeat at the exact same instants forever.
            slot = i % phases if phases > 0 else i
            tracker.start(stagger=0.05 + 0.11 * slot)
        self.jobtracker.start_expiry_monitor()

    def run_until_jobs_complete(
        self,
        jobs: Optional[List[JobInProgress]] = None,
        timeout: float = 36_000.0,
        observer=None,
    ) -> None:
        """Start (if needed) and step the simulation until every job in
        ``jobs`` is terminal -- or, without ``jobs``, until no job is
        live and no deferred submission is still on the event heap.

        ``observer(cluster)``, when given, runs **between** steps
        whenever the clock reaches its next due instant, which then
        moves ``observer.every`` virtual seconds on.  It is never a
        scheduled event, so the run is identical with or without it.

        Raises :class:`~repro.errors.ConfigurationError` when
        ``timeout`` simulated seconds pass first (a deadlock guard).
        """
        self.start()
        sim = self.sim
        deadline = sim.now + timeout
        next_due = (
            sim.now + observer.every if observer is not None else float("inf")
        )
        # The JobTracker's live-job index: a job leaves it in the same
        # callback that makes it terminal, so the stop test is O(1).
        live = self.jobtracker.job_index.job_pos
        while (
            live or self._deferred_submissions
            if jobs is None
            else not all(job.state.terminal for job in jobs)
        ):
            now = sim.now
            if now >= deadline:
                raise ConfigurationError(
                    f"jobs still running after {timeout:.0f}s of simulated time"
                )
            if now >= next_due:
                observer(self)
                next_due = now + observer.every
            if not sim.step():
                break

    # -- HDFS helpers ------------------------------------------------------------

    def create_input(
        self,
        path: str,
        size: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        writer_host: Optional[str] = None,
    ):
        """Create an input file (pre-populated, like the paper's
        randomly generated inputs)."""
        return self.namenode.create_file(
            path, size, block_size=block_size, writer_host=writer_host
        )

    # -- job helpers --------------------------------------------------------------

    def submit_job(self, spec: JobSpec, delay: Optional[float] = None) -> JobInProgress:
        """Submit now (or after ``delay``/the spec's submit_offset).

        When deferred, returns a placeholder-free handle: the JobSpec
        is submitted by a scheduled event and the JobInProgress can be
        fetched later via :meth:`job_by_name`.
        """
        offset = spec.submit_offset if delay is None else delay
        if offset <= 0:
            return self.jobtracker.submit_job(spec)
        self._deferred_submissions += 1
        self.sim.schedule(
            offset,
            self._submit_deferred,
            spec,
            label=f"cluster.submit:{spec.name}",
        )
        return None

    def _submit_deferred(self, spec: JobSpec) -> None:
        self._deferred_submissions -= 1
        self.jobtracker.submit_job(spec)

    def job_by_name(self, name: str) -> JobInProgress:
        """Find a submitted job by its spec name."""
        return self.jobtracker.job_by_name(name)

    # -- network fabric helpers -------------------------------------------------------

    def _attach_shuffle_sources(
        self, tip: TaskInProgress, spec: TaskSpec
    ) -> TaskSpec:
        """Spec transformer: resolve a reduce attempt's shuffle into
        per-source-host flows at attempt-creation time.

        Each map tip's share of the shuffle is proportional to its
        input and sourced from the host its attempt is (or was) bound
        to.  Maps not yet placed are attributed round-robin across the
        topology -- a deterministic stand-in for "wherever that map
        will run", which keeps the traffic spread realistic without
        modelling the full shuffle barrier.
        """
        if (
            spec.kind is not TaskKind.REDUCE
            or spec.shuffle_bytes <= 0
            or spec.shuffle_sources
        ):
            return spec
        maps = [t for t in tip.job.tips if t.role is TipRole.MAP]
        hosts = self.topology.hosts()
        if not maps or not hosts:
            return spec
        total_input = sum(m.spec.input_bytes for m in maps)
        by_host: Dict[str, int] = {}
        allocated = 0
        for m in maps:
            if total_input > 0:
                share = spec.shuffle_bytes * m.spec.input_bytes // total_input
            else:
                share = spec.shuffle_bytes // len(maps)
            host = m.tracker or hosts[m.index % len(hosts)]
            by_host[host] = by_host.get(host, 0) + share
            allocated += share
            last_host = host
        remainder = spec.shuffle_bytes - allocated
        if remainder > 0:
            by_host[last_host] = by_host.get(last_host, 0) + remainder
        from dataclasses import replace

        return replace(spec, shuffle_sources=tuple(by_host.items()))

    # -- fault recovery helpers ------------------------------------------------------

    def crash_tracker(self, host: str) -> None:
        """Silently kill one node's TaskTracker (and its processes).

        Nothing is reported to the JobTracker: recovery relies on the
        heartbeat-timeout monitor, exactly like a real node crash.
        """
        tracker = self.trackers.get(host)
        if tracker is None:
            raise ConfigurationError(f"unknown host {host!r}")
        tracker.shutdown()
        self.trace("cluster.crash", host=host)

    def restart_tracker(self, host: str, stagger: float = 0.05) -> None:
        """Bring a crashed node's TaskTracker daemon back up."""
        tracker = self.trackers.get(host)
        if tracker is None:
            raise ConfigurationError(f"unknown host {host!r}")
        tracker.restart(stagger=stagger)
        self.trace("cluster.restart", host=host)

    def wasted_network_bytes(self) -> int:
        """Total discarded shuffle traffic (killed/failed attempts'
        fetched bytes) from the wasted-work ledger's network column."""
        return self.jobtracker.wasted.network_bytes_total()

    # -- attempt lookup ------------------------------------------------------------

    def on_attempt_launched(self, callback: Callable[[TaskAttempt], None]) -> None:
        """Register a callback on every tracker for attempt launches."""
        for tracker in self.trackers.values():
            tracker.launch_callbacks.append(callback)

    def find_live_attempt(self, job_name: str) -> Optional[TaskAttempt]:
        """The first non-terminal work attempt of a job, if any."""
        try:
            job = self.job_by_name(job_name)
        except UnknownJobError:
            return None
        for tracker in self.trackers.values():
            for attempt in tracker.attempts.values():
                if (
                    attempt.job_id == job.job_id
                    and attempt.role is AttemptRole.TASK
                    and not attempt.state.terminal
                ):
                    return attempt
        return None

    def attempts_of(self, job_name: str, include_aux: bool = False) -> List[TaskAttempt]:
        """All attempts (across trackers) belonging to a job."""
        job = self.job_by_name(job_name)
        found = []
        for tracker in self.trackers.values():
            for attempt in tracker.attempts.values():
                if attempt.job_id != job.job_id:
                    continue
                if not include_aux and attempt.role is not AttemptRole.TASK:
                    continue
                found.append(attempt)
        return sorted(found, key=lambda a: a.attempt_id)

    def suspended_attempts(self) -> List[TaskAttempt]:
        """Every suspended attempt in the cluster."""
        return [
            attempt
            for tracker in self.trackers.values()
            for attempt in tracker.attempts.values()
            if attempt.state is AttemptState.SUSPENDED
        ]

    # -- progress watching -------------------------------------------------------------

    def when_job_progress(
        self, job_name: str, fraction: float, callback: Callable[[], None]
    ) -> None:
        """Invoke ``callback`` at the exact instant the job's first work
        attempt reaches ``fraction`` progress.

        If the attempt is not launched yet, the watch is armed at
        launch time.  This is the mechanism behind the paper's "tl
        progress at launch of th" x-axis.
        """
        attempt = self.find_live_attempt(job_name)
        if attempt is not None:
            attempt.jvm.engine.when_progress(fraction, callback)
            return
        self.on_attempt_launched(
            _ProgressWatchArmer(self, job_name, fraction, callback)
        )

    # -- memory introspection ----------------------------------------------------------

    def kernel_of(self, host: str) -> NodeKernel:
        """The node kernel of one host."""
        if host not in self.kernels:
            raise ConfigurationError(f"unknown host {host!r}")
        return self.kernels[host]

    def total_swapped_out_bytes(self) -> int:
        """Lifetime page-out volume across all nodes."""
        return sum(k.vmm.swap.total_out for k in self.kernels.values())

    def trace(self, label: str, **fields) -> None:
        """Record a cluster-level trace event."""
        self.sim.trace_log.record(self.sim.now, label, **fields)

    def check_invariants(self) -> None:
        """Cross-layer consistency checks used by the test suite."""
        for kernel in self.kernels.values():
            kernel.check_invariants()
        for tracker in self.trackers.values():
            if tracker.free_map_slots < 0 or tracker.free_reduce_slots < 0:
                raise ConfigurationError(
                    f"{tracker.host}: negative free slots"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HadoopCluster(nodes={len(self.kernels)}, "
            f"jobs={len(self.jobtracker.jobs)})"
        )
