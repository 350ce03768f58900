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
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import params as P
from repro.experiments.drive import (  # noqa: F401 (metrics_digest)
    add_digests,
    add_trackers_series,
    jobs_for,
    load_replay,
    metrics_digest,
    run_replay,
    run_replay_grid,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions, derive_seed
from repro.hadoop.cluster import HadoopCluster
from repro.preemption.base import make_primitive
from repro.schedulers.hfsp import HfspScheduler
from repro.workloads.swim import ArrivalSpec

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


#: the study's default base seed (see :func:`cell_seed`)
BASE_SEED = 9000

#: cell params -> the cell's name in errors and its sketch prefix
CELL_NAME = "{scenario}/{primitive_name}/{trackers}"
SKETCH_PREFIX = "{scenario}/{trackers}/{primitive_name}/"


def cell_seed(
    scenario: str,
    trackers: int,
    primitive_name: str,
    rep: int = 0,
    base_seed: int = BASE_SEED,
) -> int:
    """The seed of one grid cell, derived from its coordinates."""
    return derive_seed(base_seed, "scale", scenario, trackers, primitive_name, rep)


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
    # Keep the signature explicit (no **params): callers filter their
    # keyword arguments through inspect.signature.
    return run_replay("scale", locals())


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

    Checkpoint tooling snapshots it mid-flight and finishes it with
    :func:`repro.experiments.drive.finish_replay`.
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
    return load_replay(
        cluster, collector, shape["mix"],
        _arrival_spec(shape["arrival"], LOAD_SECONDS / trackers), num_jobs,
    )


def _extra_metrics(cluster) -> Dict[str, float]:
    return {"preemptions": float(cluster.scheduler.preemptions)}


def run_scale_study(
    runs: int = 1,
    base_seed: int = BASE_SEED,
    cluster_sizes: Optional[List[int]] = None,
    scenarios: Optional[List[str]] = None,
    primitives: Optional[List[str]] = None,
    num_jobs: Optional[int] = None,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """SWIM replay across cluster sizes, one sweep over ``sweep``."""
    sizes = list(cluster_sizes or DEFAULT_CLUSTER_SIZES)
    chosen_scenarios = list(scenarios or SCENARIOS)
    chosen_primitives = list(primitives or DEFAULT_PRIMITIVES)
    grid = run_replay_grid(
        "scale",
        (chosen_scenarios, sizes, chosen_primitives),
        runs,
        lambda scenario, size, primitive, rep: dict(
            scenario=scenario,
            primitive_name=primitive,
            trackers=size,
            num_jobs=jobs_for(size, num_jobs),
            seed=cell_seed(scenario, size, primitive, rep, base_seed),
        ),
        METRIC_KEYS,
        sweep,
    )

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
        add_trackers_series(
            report, f"scale-{scenario}", grid.metrics[scenario], sizes,
            chosen_primitives,
            (
                ("mean_sojourn", "mean job sojourn (s)"),
                ("small_mean_sojourn", "small-job mean sojourn (s)"),
                ("wasted", "wasted work (s)"),
            ),
        )
    for scenario in chosen_scenarios:
        shape = SCENARIOS[scenario]
        report.add_note(
            f"{scenario}: mix={shape['mix']} arrivals={shape['arrival']}"
        )
    add_digests(report, grid)
    report.extras["scenarios"] = chosen_scenarios
    report.extras["cluster_sizes"] = sizes
    report.extras["primitives"] = chosen_primitives
    return report
