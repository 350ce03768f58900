"""E6: eviction-policy ablation (Section V-A).

The paper separates the preemption *mechanism* from the eviction
*policy* and sketches the trade-off: suspending tasks closest to
completion keeps job sojourn times tight (Cho et al.), while
suspending tasks with the smallest memory footprint minimises paging
overheads.  This study runs a mixed background job (tasks of varying
progress and footprint), preempts victims for a high-priority arrival
under each policy, and reports the high-priority sojourn, the overall
makespan, and the bytes that hit swap.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NotPreemptibleError
from repro.experiments import params as P
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, SweepOptions
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.series import Series
from repro.metrics.stats import summarize
from repro.preemption.base import make_primitive
from repro.preemption.eviction import (
    ClosestToCompletionPolicy,
    FurthestFromCompletionPolicy,
    LargestMemoryPolicy,
    RandomPolicy,
    SmallestMemoryPolicy,
    collect_candidates,
)
from repro.schedulers.dummy import DummyScheduler
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, MemoryProfile, TaskKind, TaskSpec


def _background_job() -> JobSpec:
    """Four tasks with distinct sizes and footprints, so progress and
    memory differ at preemption time.

    Footprints are chosen so that *no* swapping happens while the
    background job runs alone; only the urgent arrival (plus the
    policy's choice of victims) creates memory pressure, which is what
    lets the smallest- vs largest-memory policies separate.
    """
    tasks = []
    sizes = [384 * MB, 512 * MB, 640 * MB, 768 * MB]
    footprints = [256 * MB, 640 * MB, 1 * GB, int(1.4 * GB)]
    for i, (size, footprint) in enumerate(zip(sizes, footprints)):
        tasks.append(
            TaskSpec(
                kind=TaskKind.MAP,
                input_bytes=size,
                parse_rate=P.PARSE_RATE,
                footprint_bytes=footprint,
                profile=MemoryProfile.STATEFUL,
                name=f"bg-{i}",
            )
        )
    return JobSpec(name="background", tasks=tasks, priority=0)


def _urgent_job() -> JobSpec:
    """Two stateful high-priority tasks big enough to squeeze the
    suspended victims' memory."""
    tasks = [
        TaskSpec(
            kind=TaskKind.MAP,
            input_bytes=256 * MB,
            parse_rate=P.PARSE_RATE,
            footprint_bytes=int(1.25 * GB),
            profile=MemoryProfile.STATEFUL,
            name=f"hi-{i}",
        )
        for i in range(2)
    ]
    return JobSpec(name="urgent", tasks=tasks, priority=10)


def _policies(cluster: HadoopCluster) -> Dict[str, object]:
    return {
        "closest-to-completion": ClosestToCompletionPolicy(),
        "furthest-from-completion": FurthestFromCompletionPolicy(),
        "smallest-memory": SmallestMemoryPolicy(),
        "largest-memory": LargestMemoryPolicy(),
        "random": RandomPolicy(cluster.sim.rng.stream("eviction")),
    }


def _run_once(policy_name: str, seed: int, arrival: float) -> Dict[str, float]:
    cluster = HadoopCluster(
        num_nodes=2,
        node_config=P.paper_node_config(),
        hadoop_config=P.paper_hadoop_config().replace(map_slots=2),
        scheduler=DummyScheduler(),
        seed=seed,
        trace=False,
    )
    primitive = make_primitive("suspend", cluster)
    policy = _policies(cluster)[policy_name]
    background = cluster.submit_job(_background_job())
    victims: List = []

    def arrive() -> None:
        cluster.jobtracker.submit_job(_urgent_job())
        candidates = collect_candidates(cluster, protect_jobs={"urgent"})
        for victim in policy.choose(candidates, 2):
            try:
                primitive.preempt(victim.tip)
                victims.append(victim.tip)
            except NotPreemptibleError:
                continue

    cluster.sim.schedule(arrival, arrive, label="eviction.arrival")

    def restore(job) -> None:
        if job.spec.name == "urgent":
            for tip in victims:
                primitive.restore(tip)

    cluster.jobtracker.on_job_complete(restore)
    cluster.run_until_jobs_complete(timeout=14_400.0)

    urgent = cluster.job_by_name("urgent")
    finish = max(
        j.finish_time for j in cluster.jobtracker.jobs.values() if j.finish_time
    )
    return {
        "sojourn": urgent.sojourn_time,
        "makespan": finish - background.submit_time,
        "swapped_mb": cluster.total_swapped_out_bytes() / MB,
    }


def run_eviction_study(
    runs: int = 5,
    arrival: float = 30.0,
    base_seed: int = 5000,
    policies: Optional[List[str]] = None,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Compare eviction policies under the suspend primitive; the
    (policy x repetition) grid runs as one ``sweep``."""
    chosen = policies or [
        "closest-to-completion",
        "furthest-from-completion",
        "smallest-memory",
        "largest-memory",
        "random",
    ]
    metrics: Dict[str, Dict[str, List[float]]] = {
        p: {"sojourn": [], "makespan": [], "swapped_mb": []} for p in chosen
    }
    cells = [
        Cell.make("repro.experiments.eviction_study", "_run_once",
                  policy_name=policy_name, seed=base_seed + i, arrival=arrival)
        for policy_name in chosen
        for i in range(runs)
    ]
    for index, out in enumerate(sweep.run(cells)):
        for key, value in out.items():
            metrics[chosen[index // runs]][key].append(value)

    series = Series(
        name="eviction-policies",
        x_label="policy index",
        y_label="seconds / MB",
        x_values=list(range(len(chosen))),
    )
    series.add_curve(
        "urgent sojourn (s)",
        [summarize(metrics[p]["sojourn"]).mean for p in chosen],
    )
    series.add_curve(
        "makespan (s)", [summarize(metrics[p]["makespan"]).mean for p in chosen]
    )
    series.add_curve(
        "swapped (MB)",
        [summarize(metrics[p]["swapped_mb"]).mean for p in chosen],
    )

    report = ExperimentReport(
        experiment_id="eviction",
        title="eviction-policy study under the suspend primitive",
        paper_expectation=(
            "smallest-memory minimises swap traffic (paper's suggestion); "
            "closest-to-completion keeps sojourn competitive (Cho et al.)"
        ),
    )
    report.add_series(series)
    for index, policy_name in enumerate(chosen):
        report.add_note(f"policy {index}: {policy_name}")
    smallest = summarize(metrics["smallest-memory"]["swapped_mb"]).mean
    largest = summarize(metrics["largest-memory"]["swapped_mb"]).mean
    report.add_note(
        f"swap traffic: smallest-memory {smallest:.0f} MB vs "
        f"largest-memory {largest:.0f} MB"
    )
    report.extras["metrics"] = metrics
    report.extras["policies"] = chosen
    return report
