"""Memory-oversubscribed SWIM replay (the ``memscale`` experiment).

The paper's Section III-A safety constraint -- the aggregate memory of
running + suspended tasks must fit in RAM + swap -- is precisely the
regime the 25/100/400-tracker replays never exercised: their nodes
carry the paper's generous 8 GB swap and mostly stateless tasks.  This
study replays the SWIM FACEBOOK mix with *memory-hungry stateful
reduces* (``memory-heavy`` in :data:`repro.workloads.swim.MIXES`) on
**swap-constrained** nodes, and compares four management regimes:

* **kill** -- preempt by SIGKILL; no memory risk, maximal rework;
* **wait** -- never preempt; no memory risk, maximal queueing;
* **suspend-ungated** -- raw SIGTSTP with no admission control: the
  historical behaviour with the static capacity check switched off.
  Stacked suspensions oversubscribe RAM + swap and the OOM killer
  fires (or the swap device exhausts) -- the failure mode the paper's
  constraint warns about;
* **suspend-gated** -- SIGTSTP behind the
  :class:`~repro.preemption.admission.SuspendAdmissionGate`: each
  suspension is admitted only while the victim node's live headroom
  (free RAM + droppable cache + free swap) covers the victim's
  resident set plus the configured incoming-task reserve, with denied
  suspensions falling back to waiting.  Victims are ranked by the
  resident-footprint x progress cost model
  (:class:`~repro.preemption.eviction.SuspendCostPolicy`).

Per cell the study reports sojourn times, wasted task-seconds and
network bytes, swap traffic, OOM kills and admission decisions.  The
grid shards over worker processes exactly like ``scale``/``shuffle``:
cells derive their seeds from coordinates, so ``--workers N`` is
byte-identical to serial.
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
from repro.preemption.admission import AdmissionConfig
from repro.preemption.base import make_primitive
from repro.preemption.eviction import SuspendCostPolicy
from repro.schedulers.hfsp import HfspScheduler
from repro.units import GB, MB
from repro.workloads.swim import ArrivalSpec

DEFAULT_CLUSTER_SIZES = (25, 100, 400)

#: the four management regimes compared per cell
MODES = ("kill", "wait", "suspend-gated", "suspend-ungated")

#: offered load per tracker (one arrival every LOAD_SECONDS / trackers
#: seconds); hotter than the shuffle study so slot pressure forces
#: preemption decisions while stateful task bodies hold their
#: footprints
LOAD_SECONDS = 100.0

#: hosts per rack of the simulated pod (shuffle-study convention)
HOSTS_PER_RACK = 5

#: swap per node: deliberately far below the paper's 8 GB -- a single
#: suspended stateful body overflows the device, so Section III-A's
#: constraint binds instead of being vacuous.  The running set alone
#: (2 map slots + 1 reduce slot at the memory-heavy class maxima)
#: still fits RAM + swap, so kill/wait replays never OOM.
SWAP_BYTES = 384 * MB

#: the memory-heavy mix's largest map/reduce footprints (swim.py);
#: admission arithmetic is derived from them
WORST_MAP_FOOTPRINT = 640 * MB
WORST_REDUCE_FOOTPRINT = 1408 * MB

#: admission reserve: the worst-case demand of one incoming task under
#: the memory-heavy mix (largest reduce footprint plus the execution
#: engine), so an admitted suspension always leaves room for the
#: high-priority arrival that motivated it
RESERVE_BYTES = WORST_REDUCE_FOOTPRINT + 192 * MB

#: per-tracker suspension cap for the study: generous on purpose, so
#: *ungated* SIGTSTP can stack deep enough to demonstrate the Section
#: III-A violation (the gate's byte budget, not the count cap, is what
#: keeps the gated regime safe)
MAX_SUSPENDED_PER_TRACKER = 8


def _suspended_budget(node_config, hadoop_config) -> int:
    """The standing per-node budget for suspended bytes.

    A node stays OOM-free at any future instant iff its suspended
    total never exceeds RAM + swap minus the worst-case *running* set
    the scheduler may later pack onto it (every slot filled with the
    mix's largest footprint plus the execution engine) minus the page
    cache floor the reclaimer will not cross.  This is the piece of
    Section III-A the instantaneous supply check cannot see: it
    guarantees the *next* task fits, while launches after it keep
    arriving slot by slot.
    """
    jvm = hadoop_config.jvm_base_memory
    worst_running = (
        hadoop_config.map_slots * (WORST_MAP_FOOTPRINT + jvm)
        + hadoop_config.reduce_slots * (WORST_REDUCE_FOOTPRINT + jvm)
    )
    return max(
        0,
        node_config.usable_ram_bytes
        + node_config.swap_bytes
        - worst_running
        - node_config.page_cache_min_bytes
        - 64 * MB,  # safety margin for alloc chunking and page rounding
    )

METRIC_KEYS = (
    "mean_sojourn",
    "p95_sojourn",
    "small_mean_sojourn",
    "makespan",
    "wasted",
    "wasted_net_mb",
    "swap_out_mb",
    "peak_suspended_mb",
    "oom_kills",
    "oom_raises",
    "suspend_denials",
    "preemptions",
    "jobs_failed",
)


def _make_scheduler(
    mode: str, reserve_bytes: int, node_config, hadoop_config
) -> HfspScheduler:
    if mode == "wait":
        return HfspScheduler(primitive_factory=None)
    if mode == "kill":
        return HfspScheduler(
            primitive_factory=functools.partial(make_primitive, "kill")
        )
    # Both suspend regimes run the raw primitive (the static capacity
    # check would deny *every* suspension against this study's small
    # swap device); they differ only in the admission gate.
    factory = functools.partial(
        make_primitive, "suspend", enforce_swap_capacity=False
    )
    if mode == "suspend-ungated":
        return HfspScheduler(
            primitive_factory=factory, eviction_policy=SuspendCostPolicy()
        )
    if mode == "suspend-gated":
        return HfspScheduler(
            primitive_factory=factory,
            admission_config=AdmissionConfig(
                reserve_bytes=reserve_bytes,
                fallback=("wait",),
                suspended_budget_bytes=_suspended_budget(
                    node_config, hadoop_config
                ),
            ),
            eviction_policy=SuspendCostPolicy(),
        )
    raise ConfigurationError(
        f"unknown memscale mode {mode!r}; known: {', '.join(MODES)}"
    )


#: the study's default base seed (see :func:`cell_seed`)
BASE_SEED = 12000

#: cell params -> the cell's name in errors and its sketch prefix
CELL_NAME = "{mode}/{trackers}"
SKETCH_PREFIX = "{mode}/{trackers}/"


def cell_seed(
    trackers: int,
    mode: str,
    swap_bytes: int = SWAP_BYTES,
    reserve_bytes: int = RESERVE_BYTES,
    rep: int = 0,
    base_seed: int = BASE_SEED,
) -> int:
    """The seed of one grid cell, derived from its coordinates."""
    return derive_seed(
        base_seed, "memscale", trackers, mode, swap_bytes, reserve_bytes, rep
    )


def _run_once(
    mode: str,
    trackers: int,
    num_jobs: int,
    seed: int,
    swap_bytes: int = SWAP_BYTES,
    reserve_bytes: int = RESERVE_BYTES,
    trace: bool = False,
    collector=None,
    profile: bool = False,
    heartbeat_phases: int = 0,
) -> Dict[str, float]:
    """One replay cell: pure function of its arguments.

    ``trace`` / ``collector`` / ``profile`` are the telemetry hooks,
    ``heartbeat_phases`` the heartbeat grid (same contract as
    :func:`repro.experiments.scale_study._run_once`):
    observation only, pinned by the silence differential suite.
    """
    return run_replay("memscale", locals())


def _build_run(
    mode: str,
    trackers: int,
    num_jobs: int,
    seed: int,
    swap_bytes: int = SWAP_BYTES,
    reserve_bytes: int = RESERVE_BYTES,
    trace: bool = False,
    collector=None,
    profile: bool = False,
    heartbeat_phases: int = 0,
):
    """Build one fully loaded (but not yet driven) memscale cell (see
    :func:`repro.experiments.scale_study._build_run`)."""
    node_config = P.paper_node_config().replace(swap_bytes=swap_bytes)
    hadoop_config = P.paper_hadoop_config().replace(
        map_slots=2,
        reduce_slots=1,
        max_suspended_per_tracker=MAX_SUSPENDED_PER_TRACKER,
        heartbeat_phases=heartbeat_phases,
    )
    scheduler = _make_scheduler(mode, reserve_bytes, node_config, hadoop_config)
    racks = max(1, (trackers + HOSTS_PER_RACK - 1) // HOSTS_PER_RACK)
    cluster = HadoopCluster(
        num_nodes=trackers,
        node_config=node_config,
        hadoop_config=hadoop_config,
        scheduler=scheduler,
        seed=seed,
        trace=trace,
        racks=racks,
        net_config=NetConfig.oversubscribed(
            hosts_per_rack=HOSTS_PER_RACK, oversubscription=2.0
        ),
        profile=profile,
    )
    return load_replay(
        cluster, collector, "memory-heavy",
        ArrivalSpec(kind="poisson", mean_interarrival=LOAD_SECONDS / trackers),
        num_jobs,
    )


def _extra_metrics(cluster) -> Dict[str, float]:
    gate = cluster.scheduler.admission
    failed = sum(
        1 for job in cluster.jobtracker.jobs.values()
        if job.state.value == "FAILED"
    )
    return {
        "wasted_net_mb": cluster.wasted_network_bytes() / MB,
        "swap_out_mb": cluster.total_swapped_out_bytes() / MB,
        # The heartbeat-reported view: the largest suspended total any
        # node ever carried, vs the swap the constraint allows it.
        "peak_suspended_mb": cluster.jobtracker.peak_suspended_bytes / MB,
        "oom_kills": float(
            sum(k.oom_kills for k in cluster.kernels.values())
        ),
        "oom_raises": float(
            sum(k.vmm.oom_events for k in cluster.kernels.values())
        ),
        "suspend_denials": float(gate.stats.denied if gate is not None else 0),
        "suspends_admitted": float(
            gate.stats.admitted if gate is not None else 0
        ),
        "preemptions": float(cluster.scheduler.preemptions),
        "jobs_failed": float(failed),
    }


def run_memscale_study(
    runs: int = 1,
    base_seed: int = BASE_SEED,
    cluster_sizes: Optional[List[int]] = None,
    modes: Optional[List[str]] = None,
    num_jobs: Optional[int] = None,
    swap_bytes: int = SWAP_BYTES,
    reserve_bytes: int = RESERVE_BYTES,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Memory-heavy SWIM replay on swap-constrained nodes."""
    sizes = list(cluster_sizes or DEFAULT_CLUSTER_SIZES)
    chosen_modes = list(modes or MODES)
    for mode in chosen_modes:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown memscale mode {mode!r}; known: {', '.join(MODES)}"
            )
    grid = run_replay_grid(
        "memscale",
        (sizes, chosen_modes),
        runs,
        lambda size, mode, rep: dict(
            mode=mode,
            trackers=size,
            num_jobs=jobs_for(size, num_jobs),
            swap_bytes=swap_bytes,
            reserve_bytes=reserve_bytes,
            seed=cell_seed(
                size, mode, swap_bytes, reserve_bytes, rep, base_seed
            ),
        ),
        METRIC_KEYS,
        sweep,
    )

    report = ExperimentReport(
        experiment_id="memscale",
        title=(
            "memory-oversubscribed SWIM replay "
            f"(memory-heavy mix, {swap_bytes / GB:.2g} GB swap/node)"
        ),
        paper_expectation=(
            "ungated suspension violates Section III-A under memory "
            "pressure -- swap exhausts and the OOM killer destroys work "
            "-- while admission-gated suspension keeps small-job "
            "sojourns competitive at zero OOM kills"
        ),
    )
    add_trackers_series(
        report, "memscale", grid.metrics, sizes, chosen_modes,
        (
            ("small_mean_sojourn", "small-job mean sojourn (s)"),
            ("wasted", "wasted work (s)"),
            ("swap_out_mb", "swap traffic (MB paged out)"),
            ("peak_suspended_mb", "peak per-node suspended (MB)"),
            ("oom_kills", "OOM kills"),
        ),
    )
    report.add_note(
        f"nodes: {swap_bytes / GB:.2g} GB swap, admission reserve "
        f"{reserve_bytes / GB:.2g} GB, fallback ladder suspend->wait"
    )
    report.add_note(
        "memory pressure concentrates at small clusters: HFSP preempts "
        "only when no slot is free anywhere, and statistical "
        "multiplexing makes full saturation (hence suspend stacking) "
        "rarer per node as the cluster grows"
    )
    add_digests(report, grid)
    report.extras["cluster_sizes"] = sizes
    report.extras["modes"] = chosen_modes
    report.extras["swap_bytes"] = swap_bytes
    report.extras["reserve_bytes"] = reserve_bytes
    return report
