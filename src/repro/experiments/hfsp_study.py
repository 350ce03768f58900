"""E7: the suspend primitive inside HFSP (conclusion's preliminary result).

"We have preliminary results showing that our preemption primitive
performs well in the context of HFSP, our size-based scheduler for
Hadoop."

A long job occupies the cluster; short jobs arrive while it runs.
HFSP (shortest-remaining-size-first) preempts the long job's tasks for
each arrival using wait, kill, or suspend, and the study reports the
short jobs' mean sojourn and the workload makespan per primitive --
the size-based analogue of Figures 2a/2b.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.experiments import params as P
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, SweepOptions
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.series import Series
from repro.metrics.stats import summarize
from repro.preemption.base import make_primitive
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskKind, TaskSpec


def _long_job() -> JobSpec:
    tasks = [
        TaskSpec(
            kind=TaskKind.MAP,
            input_bytes=768 * MB,
            parse_rate=P.PARSE_RATE,
            name=f"long-{i}",
        )
        for i in range(2)
    ]
    return JobSpec(name="long", tasks=tasks)


def _short_job(index: int, offset: float) -> JobSpec:
    return JobSpec(
        name=f"short-{index}",
        tasks=[
            TaskSpec(
                kind=TaskKind.MAP,
                input_bytes=96 * MB,
                parse_rate=P.PARSE_RATE,
                name=f"short-{index}",
            )
        ],
        submit_offset=offset,
    )


def _run_once(
    primitive_name: str,
    seed: int,
    arrivals: List[float],
    admission=None,
    trace: bool = False,
) -> Dict[str, float]:
    """``admission``/``trace`` exist for the gated-vs-ungated
    differential tests and default to the historical behaviour."""
    if primitive_name == "wait":
        scheduler = HfspScheduler(primitive_factory=None)
    else:
        scheduler = HfspScheduler(
            primitive_factory=functools.partial(make_primitive, primitive_name),
            admission_config=admission,
        )
    cluster = HadoopCluster(
        num_nodes=1,
        node_config=P.paper_node_config(),
        hadoop_config=P.paper_hadoop_config().replace(map_slots=2),
        scheduler=scheduler,
        seed=seed,
        trace=trace,
    )
    scheduler.attach_cluster(cluster)
    long_job = cluster.submit_job(_long_job())
    for i, offset in enumerate(arrivals):
        cluster.submit_job(_short_job(i, offset))
    cluster.run_until_jobs_complete(timeout=28_800.0)

    shorts = [
        job
        for job in cluster.jobtracker.jobs.values()
        if job.spec.name.startswith("short-")
    ]
    finish = max(
        j.finish_time for j in cluster.jobtracker.jobs.values() if j.finish_time
    )
    out = {
        "short_sojourn": sum(j.sojourn_time for j in shorts) / len(shorts),
        "long_sojourn": long_job.sojourn_time,
        "makespan": finish - long_job.submit_time,
    }
    if trace:
        out["trace_digest"] = cluster.sim.trace_log.digest()
    return out


def run_hfsp_study(
    runs: int = 5,
    arrivals: Optional[List[float]] = None,
    base_seed: int = 6000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Compare primitives inside the HFSP size-based scheduler; the
    (primitive x repetition) grid runs as one ``sweep``."""
    arrival_times = arrivals or [20.0, 45.0]
    primitives = ["wait", "kill", "suspend"]
    metrics: Dict[str, Dict[str, List[float]]] = {
        p: {"short_sojourn": [], "long_sojourn": [], "makespan": []}
        for p in primitives
    }
    cells = [
        Cell.make("repro.experiments.hfsp_study", "_run_once",
                  primitive_name=primitive, seed=base_seed + i,
                  arrivals=arrival_times)
        for primitive in primitives
        for i in range(runs)
    ]
    for index, out in enumerate(sweep.run(cells)):
        for key, value in out.items():
            metrics[primitives[index // runs]][key].append(value)

    series = Series(
        name="hfsp-primitives",
        x_label="primitive index",
        y_label="seconds",
        x_values=list(range(len(primitives))),
    )
    for metric in ("short_sojourn", "long_sojourn", "makespan"):
        series.add_curve(
            metric, [summarize(metrics[p][metric]).mean for p in primitives]
        )

    report = ExperimentReport(
        experiment_id="hfsp",
        title="preemption primitives inside HFSP (size-based scheduling)",
        paper_expectation=(
            "suspend gives short jobs kill-like sojourns without kill's "
            "makespan penalty; wait delays short jobs the most"
        ),
    )
    report.add_series(series)
    for index, primitive in enumerate(primitives):
        report.add_note(f"primitive {index}: {primitive}")
    report.extras["metrics"] = metrics
    report.extras["primitives"] = primitives
    return report
