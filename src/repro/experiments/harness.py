"""The paper's two-job microbenchmark harness (Section IV-A).

One :class:`TwoJobHarness` run reproduces one data point of Figures
2-4: the dummy scheduler runs low-priority ``tl``; at the instant
``tl`` reaches r% progress the high-priority ``th`` is submitted and
``tl`` is preempted with the chosen primitive (or not, for ``wait``);
when ``th`` completes, ``tl`` is restored.  The harness measures the
sojourn time of ``th``, the makespan, and the bytes ``tl`` paged to
swap, averaging over seeded repetitions exactly as the paper averages
20 runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import params as P
from repro.experiments.runner import Cell, SweepOptions
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.stats import RunStats, summarize
from repro.preemption.base import make_primitive
from repro.schedulers.dummy import DummyScheduler
from repro.workloads.synthetic import two_job_microbenchmark


@dataclass
class SingleRunResult:
    """Raw metrics of one simulated run."""

    sojourn_th: float
    makespan: float
    tl_paged_bytes: int
    th_paged_bytes: int
    tl_wasted_seconds: float
    suspend_count: int
    trace_cluster: Optional[HadoopCluster] = None


@dataclass
class TwoJobResult:
    """Aggregated metrics over the harness's repetitions."""

    primitive: str
    progress_at_launch: float
    sojourn_th: RunStats
    makespan: RunStats
    tl_paged_bytes: RunStats
    tl_wasted_seconds: RunStats
    runs: List[SingleRunResult] = field(default_factory=list)

    @classmethod
    def of(
        cls, primitive: str, progress_at_launch: float,
        runs: List[SingleRunResult],
    ) -> "TwoJobResult":
        """Aggregate one grid point's repetitions."""
        return cls(
            primitive=primitive,
            progress_at_launch=progress_at_launch,
            sojourn_th=summarize([r.sojourn_th for r in runs]),
            makespan=summarize([r.makespan for r in runs]),
            tl_paged_bytes=summarize([r.tl_paged_bytes for r in runs]),
            tl_wasted_seconds=summarize([r.tl_wasted_seconds for r in runs]),
            runs=list(runs),
        )


class _PreemptAndSubmit:
    """Progress-watch callback: submit ``th`` and preempt ``tl`` the
    instant ``tl`` crosses the launch threshold (picklable replacement
    for a closure, so mid-run clusters survive checkpointing)."""

    __slots__ = ("cluster", "gate", "primitive", "job_tl", "th_spec")

    def __init__(self, cluster, gate, primitive, job_tl, th_spec):
        self.cluster = cluster
        self.gate = gate
        self.primitive = primitive
        self.job_tl = job_tl
        self.th_spec = th_spec

    def __call__(self) -> None:
        from repro.preemption.admission import admit_and_preempt

        self.cluster.jobtracker.submit_job(self.th_spec)
        tip = self.job_tl.tips[0]
        if tip.state.value == "RUNNING":
            admit_and_preempt(self.gate, self.primitive, tip)


class _RestoreTl:
    """Job-completion callback: restore ``tl`` when ``th`` finishes."""

    __slots__ = ("primitive", "job_tl")

    def __init__(self, primitive, job_tl):
        self.primitive = primitive
        self.job_tl = job_tl

    def __call__(self, job) -> None:
        if job.spec.name == "th":
            tip = self.job_tl.tips[0]
            self.primitive.restore(tip)


def measure_two_job(
    cluster: HadoopCluster, keep_trace: Optional[bool] = None
) -> SingleRunResult:
    """Metrics of one finished two-job run.

    Module-level (rather than only a harness method) so the checkpoint
    resume path can measure a restored cluster without rebuilding the
    harness that created it.  ``keep_trace`` defaults to whether the
    cluster records traces at all.
    """
    if keep_trace is None:
        keep_trace = cluster.sim.trace_log.enabled
    job_tl = cluster.job_by_name("tl")
    job_th = cluster.job_by_name("th")
    finish = max(job_tl.finish_time, job_th.finish_time)
    tl_paged = max(
        (a.lifetime_swapped_bytes() for a in cluster.attempts_of("tl")),
        default=0,
    )
    th_paged = max(
        (a.lifetime_swapped_bytes() for a in cluster.attempts_of("th")),
        default=0,
    )
    suspends = sum(a.suspend_count for a in cluster.attempts_of("tl"))
    return SingleRunResult(
        sojourn_th=job_th.sojourn_time,
        makespan=finish - job_tl.submit_time,
        tl_paged_bytes=tl_paged,
        th_paged_bytes=th_paged,
        tl_wasted_seconds=job_tl.wasted_seconds,
        suspend_count=suspends,
        trace_cluster=cluster if keep_trace else None,
    )


class TwoJobHarness:
    """Builds, runs and measures the two-job microbenchmark."""

    def __init__(
        self,
        primitive: str = "suspend",
        progress_at_launch: float = 0.5,
        heavy: bool = False,
        tl_footprint: int = P.FIG3_FOOTPRINT,
        th_footprint: int = P.FIG3_FOOTPRINT,
        runs: int = P.PAPER_RUNS,
        base_seed: int = 1000,
        keep_traces: bool = False,
        node_config=None,
        hadoop_config=None,
        admission=None,
        collector=None,
        profile: bool = False,
    ):
        if not 0.0 < progress_at_launch < 1.0:
            raise ConfigurationError("progress_at_launch must be in (0, 1)")
        if runs < 1:
            raise ConfigurationError("need at least one run")
        self.primitive_name = primitive
        self.progress_at_launch = progress_at_launch
        self.heavy = heavy
        self.tl_footprint = tl_footprint
        self.th_footprint = th_footprint
        self.runs = runs
        self.base_seed = base_seed
        self.keep_traces = keep_traces
        self.node_config = node_config
        self.hadoop_config = hadoop_config
        #: optional AdmissionConfig routing suspend requests through
        #: the swap-aware admission gate (fig2's gated variant)
        self.admission = admission
        #: optional telemetry SpanCollector subscribed to each run's
        #: TraceLog (observation only -- the silence differential pins
        #: that runs are identical with or without it)
        self.collector = collector
        #: when true, each run's engine attributes fired events to
        #: their labels (repro profile --engine / bench_guard)
        self.profile = profile
        # Overridable for the GC ablation (see experiments.gc_study).
        from repro.hadoop.jvm import GcPolicy

        self.gc_policy = GcPolicy.HOARD

    # -- single run ---------------------------------------------------------------

    def run_once(self, seed: int) -> SingleRunResult:
        """One simulated run with one seed."""
        cluster = self.build_cluster(seed)
        cluster.run_until_jobs_complete(timeout=14_400.0)
        return self.measure(cluster)

    def build_cluster(self, seed: int) -> HadoopCluster:
        """Build one fully wired (but not yet driven) benchmark run.

        Split from :meth:`run_once` so checkpoint tooling can snapshot
        the cluster mid-flight and finish it later with
        ``run_until_jobs_complete`` + :meth:`measure`.
        """
        cluster = HadoopCluster(
            num_nodes=1,
            node_config=self.node_config or P.paper_node_config(),
            hadoop_config=self.hadoop_config or P.paper_hadoop_config(),
            scheduler=DummyScheduler(),
            seed=seed,
            trace=self.keep_traces,
            gc_policy=self.gc_policy,
            profile=self.profile,
        )
        if self.collector is not None:
            self.collector.attach(cluster.sim.trace_log)
        tl_spec, th_spec = two_job_microbenchmark(
            heavy=self.heavy,
            tl_footprint=self.tl_footprint,
            th_footprint=self.th_footprint,
            input_bytes=P.INPUT_BYTES,
            parse_rate=P.PARSE_RATE,
        )
        primitive = make_primitive(self.primitive_name, cluster)
        gate = None
        if self.admission is not None:
            from repro.preemption.admission import SuspendAdmissionGate

            gate = SuspendAdmissionGate(cluster, self.admission)
        job_tl = cluster.submit_job(tl_spec)
        cluster.when_job_progress(
            "tl",
            self.progress_at_launch,
            _PreemptAndSubmit(cluster, gate, primitive, job_tl, th_spec),
        )
        cluster.jobtracker.on_job_complete(_RestoreTl(primitive, job_tl))
        return cluster

    def measure(self, cluster: HadoopCluster) -> SingleRunResult:
        """Extract the run's metrics from a finished cluster."""
        return measure_two_job(cluster, keep_trace=self.keep_traces)

    # -- aggregation ---------------------------------------------------------------------

    def _cell_params(self) -> dict:
        """Constructor arguments a worker needs to rebuild this harness
        (minus seed plumbing; traces cannot cross process boundaries)."""
        return dict(
            primitive=self.primitive_name,
            progress_at_launch=self.progress_at_launch,
            heavy=self.heavy,
            tl_footprint=self.tl_footprint,
            th_footprint=self.th_footprint,
            node_config=self.node_config,
            hadoop_config=self.hadoop_config,
            gc_policy_name=self.gc_policy.name,
            admission=self.admission,
        )

    def run(self) -> TwoJobResult:
        """Average the configured number of seeded repetitions,
        serially in this process (:func:`sweep_grid` shards a grid of
        them over workers)."""
        results = [self.run_once(self.base_seed + i) for i in range(self.runs)]
        return TwoJobResult.of(
            self.primitive_name, self.progress_at_launch, results
        )


def _harness_cell(
    seed: int,
    primitive: str,
    progress_at_launch: float,
    heavy: bool,
    tl_footprint: int,
    th_footprint: int,
    node_config,
    hadoop_config,
    gc_policy_name: str,
    admission=None,
) -> SingleRunResult:
    """One repetition, rebuilt from plain arguments in a worker."""
    from repro.hadoop.jvm import GcPolicy

    harness = TwoJobHarness(
        primitive=primitive,
        progress_at_launch=progress_at_launch,
        heavy=heavy,
        tl_footprint=tl_footprint,
        th_footprint=th_footprint,
        runs=1,
        base_seed=seed,
        node_config=node_config,
        hadoop_config=hadoop_config,
        admission=admission,
    )
    harness.gc_policy = GcPolicy[gc_policy_name]
    return harness.run_once(seed)


def sweep_grid(
    primitives,
    progress_points: List[float],
    heavy: bool = False,
    runs: int = P.PAPER_RUNS,
    base_seed: int = 1000,
    sweep: SweepOptions = SweepOptions(),
) -> Dict[str, Dict[float, TwoJobResult]]:
    """The whole (primitive x progress x repetition) microbenchmark
    grid as ONE flat cell list through ONE sweep.

    Numerically identical to per-primitive :func:`sweep_progress` calls
    (each cell is the same pure function of its seed), but the pool is
    created once and late points of one primitive overlap with early
    points of the next instead of pausing at every axis boundary.
    """
    coords = [(prim, r) for prim in primitives for r in progress_points]
    cells: List[Cell] = []
    for prim, r in coords:
        params = TwoJobHarness(
            primitive=prim,
            progress_at_launch=r,
            heavy=heavy,
            runs=runs,
            base_seed=base_seed,
        )._cell_params()
        for i in range(runs):
            cells.append(
                Cell.make(
                    "repro.experiments.harness",
                    "_harness_cell",
                    seed=base_seed + i,
                    **params,
                )
            )
    flat = sweep.run(cells)
    out: Dict[str, Dict[float, TwoJobResult]] = {prim: {} for prim in primitives}
    for index, (prim, r) in enumerate(coords):
        out[prim][r] = TwoJobResult.of(
            prim, r, flat[index * runs:(index + 1) * runs]
        )
    return out


def sweep_progress(
    primitive: str,
    progress_points: Optional[List[float]] = None,
    heavy: bool = False,
    runs: int = P.PAPER_RUNS,
    base_seed: int = 1000,
) -> Dict[float, TwoJobResult]:
    """Run the harness across the paper's r-axis for one primitive."""
    points = progress_points or P.PAPER_PROGRESS_POINTS
    out: Dict[float, TwoJobResult] = {}
    for r in points:
        harness = TwoJobHarness(
            primitive=primitive,
            progress_at_launch=r,
            heavy=heavy,
            runs=runs,
            base_seed=base_seed,
        )
        out[r] = harness.run()
    return out
