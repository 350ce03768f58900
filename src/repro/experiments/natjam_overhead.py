"""E5: the Natjam comparison.

"We note that the authors of Natjam measured an overhead of around 7%
in terms of makespan, in similar experimental settings as ours.  Our
findings suggest that the overhead in our case is negligible."

This experiment runs the light-task microbenchmark with the Natjam-
style checkpointing primitive and with the OS-assisted primitive, and
reports each one's makespan overhead relative to ``wait`` (the
no-redundant-work floor).
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import params as P
from repro.experiments.harness import sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.metrics.series import Series


def run_natjam_overhead(
    runs: int = P.PAPER_RUNS,
    progress_points: Optional[List[float]] = None,
    base_seed: int = 4000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Makespan overhead of checkpointing vs OS-assisted suspension."""
    points = progress_points or [0.25, 0.5, 0.75]
    results = sweep_grid(
        [
            dict(primitive=primitive, progress_at_launch=r)
            for r in points
            for primitive in ("wait", "suspend", "natjam")
        ],
        runs=runs, base_seed=base_seed, sweep=sweep,
    )

    overhead_natjam: List[float] = []
    overhead_suspend: List[float] = []
    sojourn_natjam: List[float] = []
    sojourn_suspend: List[float] = []
    for index in range(len(points)):
        wait, susp, natjam = results[3 * index:3 * (index + 1)]
        overhead_suspend.append(
            100.0 * (susp.makespan.mean - wait.makespan.mean) / wait.makespan.mean
        )
        overhead_natjam.append(
            100.0 * (natjam.makespan.mean - wait.makespan.mean) / wait.makespan.mean
        )
        sojourn_suspend.append(susp.sojourn_th.mean)
        sojourn_natjam.append(natjam.sojourn_th.mean)

    series = Series(
        name="natjam-makespan-overhead",
        x_label="tl progress at launch of th (%)",
        y_label="makespan overhead vs wait (%)",
        x_values=[p * 100 for p in points],
    )
    series.add_curve("suspend (OS-assisted)", overhead_suspend)
    series.add_curve("natjam (checkpointing)", overhead_natjam)

    sojourn = Series(
        name="natjam-sojourn",
        x_label="tl progress at launch of th (%)",
        y_label="sojourn time th (s)",
        x_values=[p * 100 for p in points],
    )
    sojourn.add_curve("suspend (OS-assisted)", sojourn_suspend)
    sojourn.add_curve("natjam (checkpointing)", sojourn_natjam)

    report = ExperimentReport(
        experiment_id="natjam",
        title="checkpointing (Natjam-style) vs OS-assisted suspension",
        paper_expectation=(
            "Natjam-style preemption costs ~7% makespan in this setting; "
            "the OS-assisted primitive's overhead is negligible"
        ),
    )
    report.add_series(series)
    report.add_series(sojourn)
    mean_natjam = sum(overhead_natjam) / len(overhead_natjam)
    mean_suspend = sum(overhead_suspend) / len(overhead_suspend)
    report.add_note(
        f"mean makespan overhead vs wait: natjam {mean_natjam:.1f}%, "
        f"suspend {mean_suspend:.1f}%"
    )
    report.extras["mean_overhead_natjam_pct"] = mean_natjam
    report.extras["mean_overhead_suspend_pct"] = mean_suspend
    return report
