"""Network-contention preemption study (the ``shuffle`` experiment).

The paper's microbenchmarks preempt CPU- and memory-bound tasks; real
Hadoop clusters mostly fight over the *network* during shuffle-heavy
phases.  This study replays the SWIM shuffle-heavy mix on clusters
whose rack uplinks are oversubscribed (>= 2x by default), with every
reduce fetching its map outputs as real flows through the
:mod:`repro.netmodel` fabric, and compares the preemption primitives
where it hurts:

* **wait** never discards traffic but lets big jobs hold the links;
* **kill** frees slots fast but throws away every shuffle byte the
  victim already moved across the contended uplinks (the new
  wasted-network-bytes ledger column);
* **suspend** frees slots *and* link capacity -- paused fetches keep
  their bytes and resume where they stopped, so its wasted network
  traffic stays at wait's floor.

Per cell the study reports sojourn times, wasted work, wasted network
traffic, and fabric utilization (mean core / uplink occupancy,
off-rack flow counts).  The grid shards over worker processes exactly
like the scale study -- cells derive their seeds from coordinates, so
``--workers N`` is byte-identical to serial.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import params as P
from repro.experiments.drive import drive_to_completion, install_counter
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, derive_seed, run_cells
from repro.experiments.scale_study import metrics_digest
from repro.experiments.sketches import cell_sketch, merge_sketches
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.series import Series
from repro.metrics.stats import percentile, summarize
from repro.netmodel.config import NetConfig
from repro.preemption.base import make_primitive
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.swim import MIXES, ArrivalSpec, SwimGenerator

DEFAULT_CLUSTER_SIZES = (25, 100)
DEFAULT_PRIMITIVES = ("wait", "kill", "suspend")

#: offered load per tracker (scale study's methodology: one arrival
#: every LOAD_SECONDS / trackers seconds keeps utilisation constant);
#: hotter than the scale study's 240 s so slot pressure forces
#: preemption of in-flight shuffles at every default cluster size
LOAD_SECONDS = 150.0

#: hosts per rack of the simulated pod
HOSTS_PER_RACK = 5

METRIC_KEYS = (
    "mean_sojourn",
    "p95_sojourn",
    "small_mean_sojourn",
    "makespan",
    "wasted",
    "wasted_net_mb",
    "preemptions",
    "uplink_util",
    "core_util",
    "offrack_flows",
)


def _run_once(
    primitive_name: str,
    trackers: int,
    num_jobs: int,
    oversubscription: float,
    seed: int,
    locality_wait: float = 0.0,
    trace: bool = False,
    collector=None,
    profile: bool = False,
    heartbeat_phases: int = 0,
) -> Dict[str, float]:
    """One replay cell: pure function of its arguments.

    ``trace`` / ``collector`` / ``profile`` are the telemetry hooks,
    ``heartbeat_phases`` the heartbeat grid (same contract as
    :func:`repro.experiments.scale_study._run_once`).
    """
    if oversubscription <= 0:
        raise ConfigurationError("oversubscription must be positive")
    if primitive_name == "wait":
        scheduler = HfspScheduler(
            primitive_factory=None, locality_wait_seconds=locality_wait
        )
    else:
        scheduler = HfspScheduler(
            primitive_factory=functools.partial(make_primitive, primitive_name),
            locality_wait_seconds=locality_wait,
        )
    racks = max(1, (trackers + HOSTS_PER_RACK - 1) // HOSTS_PER_RACK)
    net = NetConfig.oversubscribed(
        hosts_per_rack=HOSTS_PER_RACK, oversubscription=oversubscription,
        meter_utilization=True,
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
        racks=racks,
        net_config=net,
        profile=profile,
    )
    scheduler.attach_cluster(cluster)
    if collector is not None:
        collector.attach(cluster.sim.trace_log)

    generator = SwimGenerator(
        cluster.sim.rng.stream("swim"),
        classes=MIXES["shuffle-heavy"],
        arrival=ArrivalSpec(
            kind="poisson", mean_interarrival=LOAD_SECONDS / trackers
        ),
    )
    specs = generator.generate_workload(num_jobs)
    small_names = {spec.name for spec in specs if len(spec.map_tasks) <= 3}
    for spec in specs:
        cluster.submit_job(spec)

    finished = install_counter(cluster)
    drive_to_completion(
        cluster, finished, num_jobs,
        what=f"shuffle cell {primitive_name}/{trackers}",
    )

    jobs = list(cluster.jobtracker.jobs.values())
    sojourns = sorted(
        job.sojourn_time for job in jobs if job.sojourn_time is not None
    )
    if not sojourns:
        # Name the stall instead of dividing by an empty job list.
        raise ConfigurationError(
            f"shuffle cell {primitive_name}/{trackers} drained its event "
            f"queue with 0/{num_jobs} jobs complete (scheduling deadlock?)"
        )
    small = [
        job.sojourn_time
        for job in jobs
        if job.spec.name in small_names and job.sojourn_time is not None
    ]
    finish = max(job.finish_time for job in jobs if job.finish_time is not None)
    fabric = cluster.fabric
    out = {
        "mean_sojourn": sum(sojourns) / len(sojourns),
        "p95_sojourn": percentile(sojourns, 95),
        "small_mean_sojourn": sum(small) / len(small) if small else 0.0,
        "makespan": finish,
        "wasted": cluster.jobtracker.wasted.total(),
        "wasted_net_mb": cluster.wasted_network_bytes() / MB,
        "preemptions": float(scheduler.preemptions),
        "uplink_util": fabric.mean_uplink_utilization(),
        "core_util": fabric.core.mean_utilization(cluster.sim.now),
        "offrack_flows": float(fabric.offrack_flows),
        "flows_completed": float(fabric.flows_completed),
        "jobs_completed": float(finished.count),
        "events": float(cluster.sim.events_fired),
    }
    out["sketch"] = cell_sketch(
        f"{primitive_name}/{trackers}/{oversubscription:g}/",
        sojourns, small, out,
    )
    if trace:
        out["trace_digest"] = cluster.sim.trace_log.digest()
        out["science_digest"] = cluster.sim.trace_log.science_digest()
    if profile:
        from repro.telemetry.profiling import engine_stats

        out["engine"] = engine_stats(cluster.sim)
    return out


def _jobs_for(trackers: int, num_jobs: Optional[int]) -> int:
    if num_jobs is not None:
        return num_jobs
    return max(trackers, 10)


def run_shuffle_study(
    runs: int = 1,
    base_seed: int = 11000,
    cluster_sizes: Optional[List[int]] = None,
    primitives: Optional[List[str]] = None,
    num_jobs: Optional[int] = None,
    oversubscription: float = 2.5,
    locality_wait: float = 0.0,
    workers: int = 1,
) -> ExperimentReport:
    """Shuffle-heavy SWIM replay on an oversubscribed fabric."""
    sizes = list(cluster_sizes or DEFAULT_CLUSTER_SIZES)
    chosen_primitives = list(primitives or DEFAULT_PRIMITIVES)
    if runs < 1:
        raise ConfigurationError("need at least one run")

    cells: List[Cell] = []
    coords = []
    for size in sizes:
        for primitive in chosen_primitives:
            for rep in range(runs):
                coords.append((size, primitive))
                cells.append(
                    Cell.make(
                        "repro.experiments.shuffle_study",
                        "_run_once",
                        primitive_name=primitive,
                        trackers=size,
                        num_jobs=_jobs_for(size, num_jobs),
                        oversubscription=oversubscription,
                        locality_wait=locality_wait,
                        seed=derive_seed(
                            base_seed,
                            "shuffle",
                            size,
                            primitive,
                            oversubscription,
                            locality_wait,
                            rep,
                        ),
                    )
                )
    results = run_cells(cells, workers=workers)

    metrics: Dict = {
        size: {p: {k: [] for k in METRIC_KEYS} for p in chosen_primitives}
        for size in sizes
    }
    for (size, primitive), out in zip(coords, results):
        for key in METRIC_KEYS:
            metrics[size][primitive][key].append(out[key])

    report = ExperimentReport(
        experiment_id="shuffle",
        title=(
            "network-contention preemption study "
            f"(shuffle-heavy SWIM, {oversubscription:g}x oversubscribed uplinks)"
        ),
        paper_expectation=(
            "suspend matches kill on small-job sojourns while wasting no "
            "shuffle traffic: paused fetches keep their bytes, killed ones "
            "recross the oversubscribed uplinks from scratch"
        ),
    )
    for key, y_label in (
        ("mean_sojourn", "mean job sojourn (s)"),
        ("small_mean_sojourn", "small-job mean sojourn (s)"),
        ("wasted_net_mb", "wasted network traffic (MB)"),
        ("uplink_util", "mean uplink utilization"),
    ):
        series = Series(
            name=f"shuffle-{key.replace('_', '-')}",
            x_label="trackers",
            y_label=y_label,
            x_values=[float(size) for size in sizes],
        )
        for primitive in chosen_primitives:
            series.add_curve(
                primitive,
                [
                    summarize(metrics[size][primitive][key]).mean
                    for size in sizes
                ],
            )
        report.add_series(series)
    flat = {
        f"{size}/{p}/{k}": tuple(metrics[size][p][k])
        for size in sizes
        for p in chosen_primitives
        for k in METRIC_KEYS
    }
    report.add_note(
        f"fabric: {HOSTS_PER_RACK} hosts/rack, uplinks "
        f"{oversubscription:g}x oversubscribed, "
        f"locality wait {locality_wait:g}s"
    )
    report.add_note(f"metrics digest: {metrics_digest(flat)}")
    sketch = merge_sketches(results)
    report.add_note(f"sketch digest: {sketch.digest()}")
    report.extras["metrics"] = metrics
    report.extras["digest"] = metrics_digest(flat)
    report.extras["sketch"] = sketch.to_dict()
    report.extras["sketch_digest"] = sketch.digest()
    report.extras["cluster_sizes"] = sizes
    report.extras["primitives"] = chosen_primitives
    report.extras["oversubscription"] = oversubscription
    return report
