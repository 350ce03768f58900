"""Figure 3: worst-case experiments with memory-hungry tasks.

"Both tl and th allocate a large amount of memory (2 GB in our case
...).  This value makes sure that, when running a single task the
system does not have to recur to swap; conversely, when the two tasks
are present in the system at the same time, one of them is forced to
page out memory. ... While our preemption primitive still outperforms
both alternatives with respect to both metrics, it is possible to
notice that the overheads related to paging are visible: with respect
to the sojourn time, the kill primitive achieves a slightly lower
value; similarly, the wait primitive achieves slightly smaller
makespan."

The sweep itself is Figure 2's with ``heavy=True``; this module exists
so the registry, CLI and benchmarks address it by its own id.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import params as P
from repro.experiments.fig2_baseline import run_fig2
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions


def run_fig3(
    runs: int = P.PAPER_RUNS,
    progress_points: Optional[List[float]] = None,
    base_seed: int = 2000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Regenerate Figure 3 (memory-hungry variant of the sweep)."""
    return run_fig2(
        runs=runs,
        progress_points=progress_points,
        base_seed=base_seed,
        heavy=True,
        sweep=sweep,
    )
