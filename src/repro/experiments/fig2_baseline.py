"""Figure 2: baseline experiments with light-weight tasks.

"Figure 2a illustrates the sojourn time of th: the arrival rate of h
is a parameter defined as a function of tl progress ... The kill and
our suspend/resume primitives achieve small sojourn times, as opposed
to wait ... [Figure 2b] the wait policy, at the cost of delaying th,
avoids supplementary work and achieves a small makespan; the kill
primitive, instead, wastes all the work done by tl before preemption.
Finally, our preemption primitive behaves similarly to the wait
policy."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import params as P
from repro.experiments.harness import TwoJobResult, sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.metrics.series import Series

PRIMITIVES = ("wait", "kill", "suspend")


def build_series(
    results: Dict[str, Dict[float, TwoJobResult]],
    points: List[float],
    heavy: bool,
) -> List[Series]:
    """Sojourn and makespan series from per-primitive sweeps."""
    flavour = "worst-case" if heavy else "baseline"
    sojourn = Series(
        name=f"{flavour}-sojourn",
        x_label="tl progress at launch of th (%)",
        y_label="sojourn time th (s)",
        x_values=[p * 100 for p in points],
    )
    makespan = Series(
        name=f"{flavour}-makespan",
        x_label="tl progress at launch of th (%)",
        y_label="makespan (s)",
        x_values=[p * 100 for p in points],
    )
    for primitive in PRIMITIVES:
        sweep = results[primitive]
        sojourn.add_curve(primitive, [sweep[p].sojourn_th.mean for p in points])
        makespan.add_curve(primitive, [sweep[p].makespan.mean for p in points])
    return [sojourn, makespan]


def run_fig2(
    runs: int = P.PAPER_RUNS,
    progress_points: Optional[List[float]] = None,
    base_seed: int = 1000,
    heavy: bool = False,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Regenerate Figure 2 (or Figure 3 when ``heavy=True``).

    The repetitions of every (primitive, progress) point run as one
    ``sweep``; results are identical for any of its options.
    """
    points = progress_points or P.PAPER_PROGRESS_POINTS
    flat = iter(sweep_grid(
        [dict(primitive=prim, progress_at_launch=r, heavy=heavy)
         for prim in PRIMITIVES for r in points],
        runs=runs, base_seed=base_seed, sweep=sweep,
    ))
    results: Dict[str, Dict[float, TwoJobResult]] = {
        prim: {r: next(flat) for r in points} for prim in PRIMITIVES
    }
    figure = "fig3" if heavy else "fig2"
    title = (
        "worst-case experiments (memory-hungry tasks)"
        if heavy
        else "baseline experiments (light-weight tasks)"
    )
    report = ExperimentReport(
        experiment_id=figure,
        title=title,
        paper_expectation=(
            "sojourn: kill ~= susp << wait (wait decays linearly in r); "
            "makespan: wait ~= susp << kill (kill grows linearly in r)"
            + (
                "; in the worst case kill edges susp on sojourn and wait "
                "edges susp on makespan, both marginally"
                if heavy
                else ""
            )
        ),
    )
    for series in build_series(results, points, heavy):
        report.add_series(series)

    # Spread check: the paper reports min/max within 5% of the mean.
    worst_dev = max(
        res.sojourn_th.max_relative_deviation
        for sweep in results.values()
        for res in sweep.values()
    )
    report.add_note(
        f"max relative deviation across {runs} runs: {worst_dev * 100:.1f}% "
        f"(paper: within 5%)"
    )
    if heavy:
        paged = results["suspend"][points[len(points) // 2]].tl_paged_bytes.mean
        report.add_note(
            f"tl paged to swap under suspension: {paged / (1024 ** 2):.0f} MB"
        )
    report.extras["results"] = results
    return report
