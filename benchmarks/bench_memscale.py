"""E11: memory-oversubscribed SWIM replay (suspend admission control).

The smoke bench runs the four management regimes on a 10-tracker
swap-constrained cell and asserts the study's headline claim -- the
admission gate keeps the OOM killer idle while ungated suspension
fires it.  The slow bench regenerates the full 25/100/400 sweep and
is excluded from the default run via the ``slow`` mark.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments.memscale_study import run_memscale_study
from repro.experiments.runner import SweepOptions, default_workers


def _mean(metrics, size, mode, key):
    values = metrics[size][mode][key]
    return sum(values) / len(values)


def bench_memscale_smoke(benchmark):
    """25 swap-constrained trackers, all four regimes."""
    report = run_and_report(
        benchmark,
        run_memscale_study,
        "E11 (smoke): memory-oversubscribed replay on 25 trackers",
        plots=False,
        runs=1,
        cluster_sizes=[25],
        num_jobs=25,
    )
    metrics = report.extras["metrics"]
    # The constraint is actively managed: gated and both non-suspend
    # regimes never OOM; raw SIGTSTP stacking does.
    for safe in ("kill", "wait", "suspend-gated"):
        assert _mean(metrics, 25, safe, "oom_kills") == 0.0
    assert _mean(metrics, 25, "suspend-ungated", "oom_kills") > 0.0


@pytest.mark.slow
def bench_memscale_paper_axes(benchmark):
    """The full sweep: 25/100/400 trackers x 4 regimes."""
    report = run_and_report(
        benchmark,
        run_memscale_study,
        "E11: memory-oversubscribed replay across cluster sizes",
        plots=False,
        runs=1,
        sweep=SweepOptions(workers=default_workers()),
    )
    metrics = report.extras["metrics"]
    for size in report.extras["cluster_sizes"]:
        assert _mean(metrics, size, "suspend-gated", "oom_kills") == 0.0
