"""Figure 4: paging overheads as a function of memory footprint.

"In our experiments tl allocates 2.5 GB of memory, and we parametrize
over the amount of memory th allocates.  For each experimental run, we
measure the number of bytes swapped by the process executing tl, and
compute the degradation of sojourn time and makespan compared to the
kill and wait primitives, respectively.  Figure 4 indicates that the
overheads due to paging are roughly linearly correlated to the amount
of data swapped to disk ... we note that swapped data grows more than
linearly because of an approximate implementation of the page
replacement algorithm."
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import params as P
from repro.experiments.harness import sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.metrics.series import Series
from repro.units import MB


def run_fig4(
    runs: int = P.PAPER_RUNS,
    memory_points: Optional[List[int]] = None,
    tl_footprint: int = P.FIG4_TL_FOOTPRINT,
    progress_at_launch: float = 0.5,
    base_seed: int = 3000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Regenerate Figure 4: swap volume and overheads vs th's memory."""
    points = memory_points if memory_points is not None else P.PAPER_MEMORY_POINTS
    results = sweep_grid(
        [
            dict(primitive=primitive, progress_at_launch=progress_at_launch,
                 heavy=True, tl_footprint=tl_footprint,
                 th_footprint=th_footprint)
            for th_footprint in points
            for primitive in ("suspend", "kill", "wait")
        ],
        runs=runs, base_seed=base_seed, sweep=sweep,
    )

    paged_mb: List[float] = []
    sojourn_overhead: List[float] = []
    makespan_overhead: List[float] = []
    for index in range(len(points)):
        suspend, kill, wait = results[3 * index:3 * (index + 1)]
        paged_mb.append(suspend.tl_paged_bytes.mean / MB)
        sojourn_overhead.append(suspend.sojourn_th.mean - kill.sojourn_th.mean)
        makespan_overhead.append(suspend.makespan.mean - wait.makespan.mean)

    x_mb = [p / MB for p in points]
    swap_series = Series(
        name="fig4-paged-bytes",
        x_label="memory allocated by th (MB)",
        y_label="paged bytes (MB)",
        x_values=x_mb,
    )
    swap_series.add_curve("swap", paged_mb)

    overhead_series = Series(
        name="fig4-overheads",
        x_label="memory allocated by th (MB)",
        y_label="overhead (s)",
        x_values=x_mb,
    )
    overhead_series.add_curve("th sojourn time", sojourn_overhead)
    overhead_series.add_curve("makespan", makespan_overhead)

    report = ExperimentReport(
        experiment_id="fig4",
        title="overheads when varying memory usage",
        paper_expectation=(
            "swap grows more than linearly with th's allocation (up to "
            "~1.6 GB); overheads grow roughly linearly with swapped bytes "
            "(worst case ~20% sojourn vs kill, ~12% makespan vs wait)"
        ),
    )
    report.add_series(swap_series)
    report.add_series(overhead_series)

    if len(points) >= 2 and paged_mb[-1] > 0:
        # Linearity note: overhead per swapped MB at the two largest points.
        per_mb = [
            makespan_overhead[i] / paged_mb[i]
            for i in range(len(points))
            if paged_mb[i] > 100
        ]
        if per_mb:
            spread = (max(per_mb) - min(per_mb)) / max(per_mb)
            report.add_note(
                f"makespan overhead per swapped MB varies by "
                f"{spread * 100:.0f}% across the sweep (roughly linear)"
            )
    report.extras["paged_mb"] = paged_mb
    report.extras["sojourn_overhead"] = sojourn_overhead
    report.extras["makespan_overhead"] = makespan_overhead
    return report
