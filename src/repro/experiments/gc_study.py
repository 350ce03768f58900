"""GC-policy ablation (Section V-B, "Controlling Memory Footprint").

"Java garbage collectors differ in the way they are implemented: some
of them release memory to the OS when they stop using it, others do
not.  It is therefore a good idea to configure Java to use a garbage
collector that does release memory, such as the new G1
implementation."

The ablation compares a hoarding collector (ParallelOld-style: the
heap keeps ``jvm_heap_slack`` of garbage on top of the live state)
with a releasing collector (G1-style: garbage is returned to the OS)
under the worst-case suspension benchmark.  The smaller suspended
footprint of the releasing collector translates directly into fewer
paged bytes and lower overheads.
"""

from __future__ import annotations

from repro.experiments import params as P
from repro.experiments.harness import sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.hadoop.jvm import GcPolicy
from repro.metrics.series import Series
from repro.units import MB


def run_gc_study(
    runs: int = 5,
    heap_slack: float = 0.25,
    progress_at_launch: float = 0.5,
    base_seed: int = 8000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Heavy two-job benchmark under both collector behaviours."""
    collectors = ((GcPolicy.HOARD, heap_slack), (GcPolicy.RELEASE, 0.0))
    results = sweep_grid(
        [
            dict(primitive="suspend", progress_at_launch=progress_at_launch,
                 heavy=True, gc_policy=policy,
                 hadoop_config=P.paper_hadoop_config().replace(
                     jvm_heap_slack=slack))
            for policy, slack in collectors
        ],
        runs=runs, base_seed=base_seed, sweep=sweep,
    )
    paged = [result.tl_paged_bytes.mean / MB for result in results]
    makespans = [result.makespan.mean for result in results]
    labels = [policy.value for policy, _ in collectors]

    series = Series(
        name="gc-study",
        x_label="collector index",
        y_label="seconds / MB",
        x_values=[0.0, 1.0],
    )
    series.add_curve("tl paged (MB)", paged)
    series.add_curve("makespan (s)", makespans)

    report = ExperimentReport(
        experiment_id="gc",
        title="garbage-collector ablation: hoarding vs releasing heap",
        paper_expectation=(
            "a collector that releases memory (G1-style) keeps the "
            "suspended footprint smaller, so less is paged and the "
            "makespan overhead shrinks"
        ),
    )
    report.add_series(series)
    for index, label in enumerate(labels):
        report.add_note(f"collector {index}: {label}")
    report.add_note(
        f"paged: hoard {paged[0]:.0f} MB vs release {paged[1]:.0f} MB"
    )
    report.extras["paged_mb"] = dict(zip(labels, paged))
    report.extras["makespans"] = dict(zip(labels, makespans))
    return report
