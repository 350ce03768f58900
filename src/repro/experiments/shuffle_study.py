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
from repro.experiments.drive import (
    add_digests,
    add_trackers_series,
    jobs_for,
    load_replay,
    run_replay,
    run_replay_grid,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions, derive_seed
from repro.hadoop.cluster import HadoopCluster
from repro.netmodel.config import NetConfig
from repro.preemption.base import make_primitive
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.swim import ArrivalSpec

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


#: the study's default base seed (see :func:`cell_seed`)
BASE_SEED = 11000

#: cell params -> the cell's name in errors and its sketch prefix
CELL_NAME = "{primitive_name}/{trackers}"
SKETCH_PREFIX = "{primitive_name}/{trackers}/{oversubscription:g}/"


def cell_seed(
    trackers: int,
    primitive_name: str,
    oversubscription: float = 2.5,
    locality_wait: float = 0.0,
    rep: int = 0,
    base_seed: int = BASE_SEED,
) -> int:
    """The seed of one grid cell, derived from its coordinates."""
    return derive_seed(
        base_seed, "shuffle", trackers, primitive_name, oversubscription,
        locality_wait, rep,
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
    return run_replay("shuffle", locals())


def _build_run(
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
):
    """Build one fully loaded (but not yet driven) shuffle cell (see
    :func:`repro.experiments.scale_study._build_run`)."""
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
    return load_replay(
        cluster, collector, "shuffle-heavy",
        ArrivalSpec(kind="poisson", mean_interarrival=LOAD_SECONDS / trackers),
        num_jobs,
    )


def _extra_metrics(cluster) -> Dict[str, float]:
    fabric = cluster.fabric
    return {
        "wasted_net_mb": cluster.wasted_network_bytes() / MB,
        "preemptions": float(cluster.scheduler.preemptions),
        "uplink_util": fabric.mean_uplink_utilization(),
        "core_util": fabric.core.mean_utilization(cluster.sim.now),
        "offrack_flows": float(fabric.offrack_flows),
        "flows_completed": float(fabric.flows_completed),
    }


def run_shuffle_study(
    runs: int = 1,
    base_seed: int = BASE_SEED,
    cluster_sizes: Optional[List[int]] = None,
    primitives: Optional[List[str]] = None,
    num_jobs: Optional[int] = None,
    oversubscription: float = 2.5,
    locality_wait: float = 0.0,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Shuffle-heavy SWIM replay on an oversubscribed fabric."""
    sizes = list(cluster_sizes or DEFAULT_CLUSTER_SIZES)
    chosen_primitives = list(primitives or DEFAULT_PRIMITIVES)
    grid = run_replay_grid(
        "shuffle",
        (sizes, chosen_primitives),
        runs,
        lambda size, primitive, rep: dict(
            primitive_name=primitive,
            trackers=size,
            num_jobs=jobs_for(size, num_jobs),
            oversubscription=oversubscription,
            locality_wait=locality_wait,
            seed=cell_seed(
                size, primitive, oversubscription, locality_wait, rep,
                base_seed,
            ),
        ),
        METRIC_KEYS,
        sweep,
    )

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
    add_trackers_series(
        report, "shuffle", grid.metrics, sizes, chosen_primitives,
        (
            ("mean_sojourn", "mean job sojourn (s)"),
            ("small_mean_sojourn", "small-job mean sojourn (s)"),
            ("wasted_net_mb", "wasted network traffic (MB)"),
            ("uplink_util", "mean uplink utilization"),
        ),
    )
    report.add_note(
        f"fabric: {HOSTS_PER_RACK} hosts/rack, uplinks "
        f"{oversubscription:g}x oversubscribed, "
        f"locality wait {locality_wait:g}s"
    )
    add_digests(report, grid)
    report.extras["cluster_sizes"] = sizes
    report.extras["primitives"] = chosen_primitives
    report.extras["oversubscription"] = oversubscription
    return report
