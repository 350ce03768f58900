"""Swappiness ablation (Section III-A / IV-A configuration note).

The paper configures the kernel the Hadoop way: "we prioritize runtime
memory over disk cache and therefore limit swapping ... by setting the
Linux swappiness parameter to 0".  This ablation quantifies why: with
a higher swappiness the reclaimer takes process pages while file-cache
pages remain, so the suspended task (and even the running one) hits
swap sooner, inflating exactly the overheads Figures 3-4 measure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import params as P
from repro.experiments.harness import sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.metrics.series import Series
from repro.units import MB


def run_swappiness_study(
    runs: int = 5,
    swappiness_values: Optional[List[int]] = None,
    progress_at_launch: float = 0.5,
    base_seed: int = 7000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Two-job benchmark swept over the swappiness knob.

    The scenario is chosen so the page cache *could* absorb the
    pressure entirely: tl allocates 2.5 GB (suspended), th allocates
    only 512 MB.  At swappiness 0 the cache gives way and tl stays in
    RAM; at higher values the reclaimer protects cache pages and takes
    tl's memory instead -- the failure mode the Hadoop best practice
    avoids.
    """
    values = swappiness_values or [0, 30, 60, 90]
    results = sweep_grid(
        [
            dict(primitive="suspend", progress_at_launch=progress_at_launch,
                 heavy=True, tl_footprint=P.FIG4_TL_FOOTPRINT,
                 th_footprint=512 * MB,
                 node_config=P.paper_node_config().replace(
                     swappiness=swappiness))
            for swappiness in values
        ],
        runs=runs, base_seed=base_seed, sweep=sweep,
    )
    paged = [result.tl_paged_bytes.mean / MB for result in results]
    makespans = [result.makespan.mean for result in results]
    sojourns = [result.sojourn_th.mean for result in results]

    series = Series(
        name="swappiness-study",
        x_label="swappiness",
        y_label="seconds / MB",
        x_values=[float(v) for v in values],
    )
    series.add_curve("tl paged (MB)", paged)
    series.add_curve("makespan (s)", makespans)
    series.add_curve("th sojourn (s)", sojourns)

    report = ExperimentReport(
        experiment_id="swappiness",
        title="swappiness ablation under suspension (heavy tasks)",
        paper_expectation=(
            "swappiness 0 (the paper's setting) minimises paging: higher "
            "values evict process pages while cache remains, inflating "
            "swap volume and both overheads"
        ),
    )
    report.add_series(series)
    report.add_note(
        f"paged bytes at swappiness {values[0]}: {paged[0]:.0f} MB vs "
        f"{values[-1]}: {paged[-1]:.0f} MB"
    )
    report.extras["values"] = values
    report.extras["paged_mb"] = paged
    report.extras["makespans"] = makespans
    return report
