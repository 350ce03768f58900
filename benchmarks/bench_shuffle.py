"""E10: network-contention preemption study (flow-routed shuffle).

The smoke bench runs a small oversubscribed-fabric cell grid and
asserts the subsystem's headline claim -- suspension wastes strictly
less network traffic than killing; the slow bench regenerates the full
25/100 sweep.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments.runner import SweepOptions, default_workers
from repro.experiments.shuffle_study import run_shuffle_study


def bench_shuffle_smoke(benchmark):
    """A small fabric cell grid: 6 trackers, three primitives."""
    report = run_and_report(
        benchmark,
        run_shuffle_study,
        "E10 (smoke): flow-routed shuffle on 6 trackers",
        plots=False,
        runs=1,
        cluster_sizes=[6],
        num_jobs=14,
    )
    metrics = report.extras["metrics"]
    for primitive in report.extras["primitives"]:
        assert metrics[6][primitive]["mean_sojourn"][0] > 0
        assert metrics[6][primitive]["uplink_util"][0] > 0
    # The tentpole claim, asserted on every CI run: kill recrosses the
    # oversubscribed uplinks, suspend never does.
    assert metrics[6]["kill"]["wasted_net_mb"][0] > 0
    assert metrics[6]["suspend"]["wasted_net_mb"][0] == 0


@pytest.mark.slow
def bench_shuffle_paper_axes(benchmark):
    """The full sweep: 25/100 trackers x wait/kill/suspend."""
    report = run_and_report(
        benchmark,
        run_shuffle_study,
        "E10: shuffle study across cluster sizes",
        plots=False,
        runs=1,
        sweep=SweepOptions(workers=default_workers()),
    )
    metrics = report.extras["metrics"]
    for size in report.extras["cluster_sizes"]:
        assert (
            metrics[size]["suspend"]["wasted_net_mb"][0]
            <= metrics[size]["kill"]["wasted_net_mb"][0]
        )
