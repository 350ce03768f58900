"""E9: cluster-at-scale SWIM replay.

The smoke bench keeps CI honest on the new subsystem's runtime and
headline claims; the slow bench regenerates the full 25/100/400
cluster-size sweep (the scale analogue of the paper's tables) and is
excluded from the default run via the ``slow`` mark.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments.runner import SweepOptions, default_workers
from repro.experiments.scale_study import run_scale_study


def _mean(metrics, scenario, size, primitive, key):
    values = metrics[scenario][size][primitive][key]
    return sum(values) / len(values)


def bench_scale_smoke(benchmark):
    """A small replay cell grid: 10 trackers, two scenarios."""
    report = run_and_report(
        benchmark,
        run_scale_study,
        "E9 (smoke): SWIM replay on 10 trackers",
        plots=False,
        runs=1,
        cluster_sizes=[10],
        scenarios=["baseline", "burst"],
        primitives=["wait", "kill", "suspend"],
        num_jobs=10,
    )
    metrics = report.extras["metrics"]
    for scenario in report.extras["scenarios"]:
        for primitive in report.extras["primitives"]:
            # Every cell drained its whole workload.
            values = metrics[scenario][10][primitive]["mean_sojourn"]
            assert all(v > 0 for v in values)


@pytest.mark.slow
def bench_scale_paper_axes(benchmark):
    """The full sweep: 25/100/400 trackers x 4 scenarios x 3 primitives."""
    report = run_and_report(
        benchmark,
        run_scale_study,
        "E9: SWIM replay across cluster sizes",
        plots=False,
        runs=1,
        sweep=SweepOptions(workers=default_workers()),
    )
    metrics = report.extras["metrics"]
    sizes = report.extras["cluster_sizes"]
    for scenario in report.extras["scenarios"]:
        for size in sizes:
            # Suspension never wastes more work than killing: the whole
            # point of the primitive, now asserted at every scale.
            assert _mean(metrics, scenario, size, "suspend", "wasted") <= _mean(
                metrics, scenario, size, "kill", "wasted"
            )
