"""Cluster-at-scale SWIM replay (the "does it hold at scale" study).

The paper's claims are demonstrated on a handful of nodes with two
jobs; this study replays SWIM-style heavy-tailed workloads -- the
trace-calibrated mixes and arrival processes of
:mod:`repro.workloads.swim` -- on simulated clusters of 25, 100 and
400 TaskTrackers, with the HFSP size-based scheduler preempting via
wait, kill or suspend (the deployment the authors name in their
conclusion, at the scale of the Facebook traces SWIM was built from).

Grid: **scenario** (workload mix x arrival process) x **cluster
size** x **primitive** x seeded repetition.  Every cell is an
independent simulation whose seed is derived from the cell's
coordinates (:func:`repro.experiments.runner.derive_seed`), so the
grid shards across worker processes with bit-identical results --
``repro run scale --workers 4`` equals ``--workers 1`` byte for byte.

Per cell the study reports job sojourn times (mean, p95, and the
small-job mean that size-based scheduling is supposed to protect),
makespan, wasted work and preemption counts.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import params as P
from repro.experiments.drive import (
    drive_to_completion,
    find_counter,
    install_counter,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, derive_seed, run_cells
from repro.experiments.sketches import cell_sketch, merge_sketches
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.series import Series
from repro.metrics.stats import percentile, summarize
from repro.preemption.base import make_primitive
from repro.schedulers.hfsp import HfspScheduler
from repro.workloads.swim import MIXES, ArrivalSpec, SwimGenerator

#: scenario name -> (mix key, arrival process); the arrival's mean is
#: rescaled per cluster size in :func:`_run_once`
SCENARIOS: Dict[str, Dict[str, str]] = {
    "baseline": {"mix": "facebook", "arrival": "poisson"},
    "shuffle-heavy": {"mix": "shuffle-heavy", "arrival": "poisson"},
    "burst": {"mix": "facebook", "arrival": "bursty"},
    "diurnal": {"mix": "facebook", "arrival": "diurnal"},
    # Homogeneous long jobs: the whole workload stays live at once, the
    # many-live-jobs regime the standing job index serves
    # (bench_guard's 2000/5000-tracker cells replay this scenario).
    "steady": {"mix": "steady", "arrival": "poisson"},
}

DEFAULT_CLUSTER_SIZES = (25, 100, 400)
DEFAULT_PRIMITIVES = ("wait", "kill", "suspend")

#: offered load per tracker: one job arrives every LOAD_SECONDS /
#: trackers seconds, so utilisation stays roughly constant across the
#: cluster-size sweep (SWIM's scale-the-arrival-rate methodology)
LOAD_SECONDS = 240.0

METRIC_KEYS = (
    "mean_sojourn",
    "p95_sojourn",
    "small_mean_sojourn",
    "makespan",
    "wasted",
    "preemptions",
)


def _arrival_spec(kind: str, mean_interarrival: float) -> ArrivalSpec:
    if kind == "bursty":
        return ArrivalSpec(
            kind="bursty",
            mean_interarrival=mean_interarrival,
            burst_size=range(3, 9),
            burst_spread=max(mean_interarrival / 10.0, 0.1),
        )
    if kind == "diurnal":
        return ArrivalSpec(
            kind="diurnal",
            mean_interarrival=mean_interarrival,
            period=300.0,
            amplitude=0.8,
        )
    return ArrivalSpec(kind="poisson", mean_interarrival=mean_interarrival)


def _run_once(
    scenario: str,
    primitive_name: str,
    trackers: int,
    num_jobs: int,
    seed: int,
    admission=None,
    trace: bool = False,
    collector=None,
    profile: bool = False,
    heartbeat_phases: int = 0,
) -> Dict[str, float]:
    """One replay cell: pure function of its arguments.

    ``admission`` (an
    :class:`~repro.preemption.admission.AdmissionConfig`) routes
    suspensions through the swap-aware gate; ``trace`` keeps the
    TraceLog and adds its digest to the result -- both exist for the
    gated-vs-ungated differential tests and default to the historical
    behaviour.  ``collector`` (a telemetry
    :class:`~repro.telemetry.spans.SpanCollector`) subscribes to the
    cell's TraceLog -- observation only, and in-process only (never a
    Cell param); ``profile`` turns on the engine's per-label
    attribution and adds its stats under ``"engine"``.
    ``heartbeat_phases`` locks tracker heartbeats onto that many shared
    phase offsets; 0 keeps the free-drifting stagger.
    """
    cluster, finished = _build_run(
        scenario, primitive_name, trackers, num_jobs, seed,
        admission=admission, trace=trace, collector=collector,
        profile=profile, heartbeat_phases=heartbeat_phases,
    )
    drive_to_completion(
        cluster, finished, num_jobs,
        what=f"scale cell {scenario}/{primitive_name}/{trackers}",
    )
    return _collect_run(
        cluster, scenario, primitive_name, trackers, finished, trace, profile
    )


def _build_run(
    scenario: str,
    primitive_name: str,
    trackers: int,
    num_jobs: int,
    seed: int,
    admission=None,
    trace: bool = False,
    collector=None,
    profile: bool = False,
    heartbeat_phases: int = 0,
):
    """Build one fully loaded (but not yet driven) replay cell.

    Split from :func:`_run_once` so checkpoint tooling can snapshot
    the cluster mid-flight and finish it later with
    :func:`_finish_run`.  Returns ``(cluster, completion_counter)``.
    """
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    shape = SCENARIOS[scenario]
    if primitive_name == "wait":
        scheduler = HfspScheduler(primitive_factory=None)
    else:
        scheduler = HfspScheduler(
            primitive_factory=functools.partial(make_primitive, primitive_name),
            admission_config=admission,
        )
    cluster = HadoopCluster(
        num_nodes=trackers,
        node_config=P.paper_node_config(),
        hadoop_config=P.paper_hadoop_config().replace(
            map_slots=2,
            reduce_slots=1,
            heartbeat_phases=heartbeat_phases,
        ),
        scheduler=scheduler,
        seed=seed,
        trace=trace,
        profile=profile,
    )
    scheduler.attach_cluster(cluster)
    if collector is not None:
        collector.attach(cluster.sim.trace_log)

    mean_interarrival = LOAD_SECONDS / trackers
    generator = SwimGenerator(
        cluster.sim.rng.stream("swim"),
        classes=MIXES[shape["mix"]],
        arrival=_arrival_spec(shape["arrival"], mean_interarrival),
    )
    specs = generator.generate_workload(num_jobs)
    for spec in specs:
        cluster.submit_job(spec)
    return cluster, install_counter(cluster)


def _finish_run(cluster, meta: Dict) -> Dict[str, float]:
    """Drive a (restored) cell to completion and collect its metrics.

    ``meta`` is the checkpoint meta written by
    :mod:`repro.checkpoint.cells` -- the cell coordinates needed to
    recompute the sketch prefix and deadlock message.
    """
    finished = find_counter(cluster)
    drive_to_completion(
        cluster, finished, int(meta["num_jobs"]),
        what=(
            f"scale cell {meta['scenario']}/{meta['primitive_name']}"
            f"/{meta['trackers']}"
        ),
    )
    return _collect_run(
        cluster, meta["scenario"], meta["primitive_name"],
        int(meta["trackers"]), finished,
        bool(meta.get("trace")), bool(meta.get("profile")),
    )


def _collect_run(
    cluster,
    scenario: str,
    primitive_name: str,
    trackers: int,
    finished,
    trace: bool,
    profile: bool,
) -> Dict[str, float]:
    """The metric tail of :func:`_run_once`, recomputable after a
    checkpoint restore (small jobs are re-identified from the submitted
    specs, which ride inside the checkpoint)."""
    scheduler = cluster.scheduler
    jobs = list(cluster.jobtracker.jobs.values())
    small_names = {
        job.spec.name for job in jobs if len(job.spec.map_tasks) <= 3
    }
    sojourns = sorted(
        job.sojourn_time for job in jobs if job.sojourn_time is not None
    )
    small = [
        job.sojourn_time
        for job in jobs
        if job.spec.name in small_names and job.sojourn_time is not None
    ]
    finish = max(job.finish_time for job in jobs if job.finish_time is not None)
    out = {
        "mean_sojourn": sum(sojourns) / len(sojourns),
        "p95_sojourn": percentile(sojourns, 95),
        "small_mean_sojourn": sum(small) / len(small) if small else 0.0,
        "makespan": finish,
        "wasted": cluster.jobtracker.wasted.total(),
        "preemptions": float(scheduler.preemptions),
        "jobs_completed": float(finished.count),
        "events": float(cluster.sim.events_fired),
    }
    out["sketch"] = cell_sketch(
        f"{scenario}/{trackers}/{primitive_name}/", sojourns, small, out
    )
    if trace:
        out["trace_digest"] = cluster.sim.trace_log.digest()
        out["science_digest"] = cluster.sim.trace_log.science_digest()
    if profile:
        from repro.telemetry.profiling import engine_stats

        out["engine"] = engine_stats(cluster.sim)
    return out


def _jobs_for(trackers: int, num_jobs: Optional[int]) -> int:
    """Workload length per cluster size: jobs scale with trackers (the
    SWIM day-in-the-life replay grows with the cluster it feeds)."""
    if num_jobs is not None:
        return num_jobs
    return max(trackers, 10)


def metrics_digest(metrics: Dict) -> str:
    """SHA-256 of the full nested metric structure.

    ``repr`` round-trips floats exactly, so two digests match iff
    every metric of every cell is bit-identical -- the value the
    serial-vs-parallel acceptance test compares.
    """
    return hashlib.sha256(repr(sorted(metrics.items())).encode("utf-8")).hexdigest()


def run_scale_study(
    runs: int = 1,
    base_seed: int = 9000,
    cluster_sizes: Optional[List[int]] = None,
    scenarios: Optional[List[str]] = None,
    primitives: Optional[List[str]] = None,
    num_jobs: Optional[int] = None,
    workers: int = 1,
) -> ExperimentReport:
    """SWIM replay across cluster sizes, sharded over ``workers``."""
    sizes = list(cluster_sizes or DEFAULT_CLUSTER_SIZES)
    chosen_scenarios = list(scenarios or SCENARIOS)
    chosen_primitives = list(primitives or DEFAULT_PRIMITIVES)
    if runs < 1:
        raise ConfigurationError("need at least one run")

    cells: List[Cell] = []
    coords = []
    for scenario in chosen_scenarios:
        for size in sizes:
            for primitive in chosen_primitives:
                for rep in range(runs):
                    coords.append((scenario, size, primitive))
                    cells.append(
                        Cell.make(
                            "repro.experiments.scale_study",
                            "_run_once",
                            scenario=scenario,
                            primitive_name=primitive,
                            trackers=size,
                            num_jobs=_jobs_for(size, num_jobs),
                            seed=derive_seed(
                                base_seed, "scale", scenario, size, primitive, rep
                            ),
                        )
                    )
    results = run_cells(cells, workers=workers)

    metrics: Dict = {
        s: {
            size: {p: {k: [] for k in METRIC_KEYS} for p in chosen_primitives}
            for size in sizes
        }
        for s in chosen_scenarios
    }
    for (scenario, size, primitive), out in zip(coords, results):
        for key in METRIC_KEYS:
            metrics[scenario][size][primitive][key].append(out[key])

    report = ExperimentReport(
        experiment_id="scale",
        title="cluster-at-scale SWIM replay (HFSP x preemption primitives)",
        paper_expectation=(
            "suspend holds small-job sojourns near kill's while keeping "
            "wasted work near wait's floor, at every cluster size; the "
            "gap widens with shuffle-heavy mixes and bursty arrivals"
        ),
    )
    for scenario in chosen_scenarios:
        for key, y_label in (
            ("mean_sojourn", "mean job sojourn (s)"),
            ("small_mean_sojourn", "small-job mean sojourn (s)"),
            ("wasted", "wasted work (s)"),
        ):
            series = Series(
                name=f"scale-{scenario}-{key.replace('_', '-')}",
                x_label="trackers",
                y_label=y_label,
                x_values=[float(size) for size in sizes],
            )
            for primitive in chosen_primitives:
                series.add_curve(
                    primitive,
                    [
                        summarize(metrics[scenario][size][primitive][key]).mean
                        for size in sizes
                    ],
                )
            report.add_series(series)
    for scenario in chosen_scenarios:
        shape = SCENARIOS[scenario]
        report.add_note(
            f"{scenario}: mix={shape['mix']} arrivals={shape['arrival']}"
        )
    flat = {
        f"{s}/{size}/{p}/{k}": tuple(metrics[s][size][p][k])
        for s in chosen_scenarios
        for size in sizes
        for p in chosen_primitives
        for k in METRIC_KEYS
    }
    report.add_note(f"metrics digest: {metrics_digest(flat)}")
    sketch = merge_sketches(results)
    report.add_note(f"sketch digest: {sketch.digest()}")
    report.extras["metrics"] = metrics
    report.extras["digest"] = metrics_digest(flat)
    report.extras["sketch"] = sketch.to_dict()
    report.extras["sketch_digest"] = sketch.digest()
    report.extras["scenarios"] = chosen_scenarios
    report.extras["cluster_sizes"] = sizes
    report.extras["primitives"] = chosen_primitives
    return report
