"""Fault study: preemption primitives under failures.

The paper evaluates kill/wait/suspend on healthy clusters; this study
re-runs the two-job contention pattern under injected faults and asks
which primitive recovers wasted work best.  Grid:

* **scenarios** (:mod:`repro.faults.scenarios`): node-crash (with
  reboot), straggler (one node at 30% speed, speculative execution
  on), transient-failure (task errors with retries);
* **primitives**: kill, wait, suspend.

Per cell the study reports the urgent job's sojourn, the global
makespan and the wasted task-seconds from the JobTracker's ledger --
the recovered-vs-wasted-work framing of ATLAS and the OSG preemption
telemetry study.  Everything is seeded: same ``base_seed`` in, same
numbers out, which the test suite asserts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NotPreemptibleError
from repro.experiments import params as P
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, SweepOptions
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import build_scenario
from repro.hadoop.cluster import HadoopCluster
from repro.metrics.series import Series
from repro.metrics.stats import summarize
from repro.metrics.wasted import PREEMPTION_KILL
from repro.preemption.base import make_primitive
from repro.preemption.eviction import (
    FurthestFromCompletionPolicy,
    collect_candidates,
)
from repro.schedulers.dummy import DummyScheduler
from repro.schedulers.failure_aware import FailureAwareMixin
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskKind, TaskSpec

DEFAULT_SCENARIOS = ["node-crash", "straggler", "transient-failure"]
DEFAULT_PRIMITIVES = ["kill", "wait", "suspend"]

#: urgent job arrival (seconds after the background job)
ARRIVAL = 30.0
#: victims preempted for the urgent job
VICTIMS = 2
NUM_NODES = 3


class FailureAwareDummyScheduler(FailureAwareMixin, DummyScheduler):
    """The study's scheduler: trigger-driven assignment with ATLAS-style
    failure awareness (blacklist avoidance, recovery-first)."""


def _background_job() -> JobSpec:
    """Six maps that fill the cluster's slots when the urgent job lands."""
    tasks = [
        TaskSpec(
            kind=TaskKind.MAP,
            input_bytes=300 * MB,
            parse_rate=P.PARSE_RATE,
            output_bytes=0,
            name=f"bg-{i}",
        )
        for i in range(6)
    ]
    return JobSpec(name="background", tasks=tasks, priority=0)


def _urgent_job() -> JobSpec:
    """Two high-priority maps that need preempted slots."""
    tasks = [
        TaskSpec(
            kind=TaskKind.MAP,
            input_bytes=150 * MB,
            parse_rate=P.PARSE_RATE,
            output_bytes=0,
            name=f"hi-{i}",
        )
        for i in range(2)
    ]
    return JobSpec(name="urgent", tasks=tasks, priority=10)


def _study_config():
    """Paper Hadoop config adapted for the fault grid: two map slots
    per node, snappy tracker expiry, speculation on."""
    return P.paper_hadoop_config().replace(
        map_slots=2,
        tracker_expiry_interval=20.0,
        speculative_execution=True,
        speculative_lag=20.0,
    )


def _run_once(scenario: str, primitive_name: str, seed: int) -> Dict[str, float]:
    scheduler = FailureAwareDummyScheduler()
    cluster = HadoopCluster(
        num_nodes=NUM_NODES,
        node_config=P.paper_node_config(),
        hadoop_config=_study_config(),
        scheduler=scheduler,
        seed=seed,
        trace=False,
    )
    primitive = make_primitive(primitive_name, cluster)
    policy = FurthestFromCompletionPolicy()
    background = cluster.submit_job(_background_job())
    victims: List = []

    def arrive() -> None:
        cluster.jobtracker.submit_job(_urgent_job())
        # The dummy scheduler's trigger semantics: while the urgent job
        # runs, preempted background work may not re-enter the freed
        # slots (otherwise a killed victim races the urgent job's setup
        # task for them and the primitives are not comparable).
        scheduler.freeze("background")
        candidates = collect_candidates(cluster, protect_jobs={"urgent"})
        for victim in policy.choose(candidates, VICTIMS):
            try:
                primitive.preempt(victim.tip)
                victims.append(victim.tip)
            except NotPreemptibleError:  # pragma: no cover - defensive
                continue

    cluster.sim.schedule(ARRIVAL, arrive, label="faults.arrival")

    def restore(job) -> None:
        if job.spec.name == "urgent":
            scheduler.unfreeze("background")
            for tip in victims:
                try:
                    primitive.restore(tip)
                except NotPreemptibleError:
                    # The fault (e.g. the victim's node crashing while
                    # suspended) already forced a restart from scratch.
                    continue

    cluster.jobtracker.on_job_complete(restore)

    injector = FaultInjector(
        cluster, build_scenario(scenario, sorted(cluster.trackers))
    )
    injector.install()

    cluster.run_until_jobs_complete(timeout=14_400.0)
    urgent = cluster.job_by_name("urgent")
    finish = max(
        j.finish_time for j in cluster.jobtracker.jobs.values() if j.finish_time
    )
    by_cause = cluster.jobtracker.wasted.by_cause()
    return {
        "sojourn": urgent.sojourn_time,
        "makespan": finish - background.submit_time,
        "wasted": cluster.jobtracker.wasted.total(),
        # The share caused by the preemption mechanism itself, as
        # opposed to fault damage and speculation losers: the cost a
        # primitive *chooses* to pay.
        "wasted_preemption": by_cause.get(PREEMPTION_KILL, 0.0),
    }


def run_faults_study(
    runs: int = 3,
    base_seed: int = 7000,
    scenarios: Optional[List[str]] = None,
    primitives: Optional[List[str]] = None,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Makespan and wasted work per fault scenario x preemption primitive.

    The (scenario x primitive x repetition) grid runs as one ``sweep``;
    every cell's seed depends only on its repetition index, so the
    numbers are identical for any worker count.
    """
    chosen_scenarios = scenarios or list(DEFAULT_SCENARIOS)
    chosen_primitives = primitives or list(DEFAULT_PRIMITIVES)
    metrics: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        s: {
            p: {"sojourn": [], "makespan": [], "wasted": [],
                "wasted_preemption": []}
            for p in chosen_primitives
        }
        for s in chosen_scenarios
    }
    coords = [
        (scenario, primitive, i)
        for scenario in chosen_scenarios
        for primitive in chosen_primitives
        for i in range(runs)
    ]
    cells = [
        Cell.make(
            "repro.experiments.faults_study",
            "_run_once",
            scenario=scenario,
            primitive_name=primitive,
            seed=base_seed + i,
        )
        for scenario, primitive, i in coords
    ]
    for (scenario, primitive, _), out in zip(
        coords, sweep.run(cells)
    ):
        for key, value in out.items():
            metrics[scenario][primitive][key].append(value)

    report = ExperimentReport(
        experiment_id="faults",
        title="preemption primitives under injected faults",
        paper_expectation=(
            "suspend keeps wasted work near the fault-induced floor in every "
            "scenario (kill adds preemption waste on top); wait avoids waste "
            "but pays with the urgent job's sojourn"
        ),
    )
    for scenario in chosen_scenarios:
        series = Series(
            name=f"faults-{scenario}",
            x_label="primitive index",
            y_label="seconds",
            x_values=list(range(len(chosen_primitives))),
        )
        for key, label in (
            ("sojourn", "urgent sojourn (s)"),
            ("makespan", "makespan (s)"),
            ("wasted", "wasted work (s)"),
        ):
            series.add_curve(
                label,
                [
                    summarize(metrics[scenario][p][key]).mean
                    for p in chosen_primitives
                ],
            )
        report.add_series(series)
    for index, primitive in enumerate(chosen_primitives):
        report.add_note(f"primitive {index}: {primitive}")
    for scenario in chosen_scenarios:
        cells = metrics[scenario]
        if "kill" in cells and "suspend" in cells:
            kill_waste = summarize(cells["kill"]["wasted"]).mean
            susp_waste = summarize(cells["suspend"]["wasted"]).mean
            report.add_note(
                f"{scenario}: wasted work kill {kill_waste:.0f}s vs "
                f"suspend {susp_waste:.0f}s"
            )
    report.extras["metrics"] = metrics
    report.extras["scenarios"] = chosen_scenarios
    report.extras["primitives"] = chosen_primitives
    return report
