"""Advisor validation: choosing the primitive per victim (Section V-A).

"for freshly started tasks, it may be preferable to use the kill
primitive, and for tasks that are very close to completion it may be
better to simply wait for them to finish."

This study measures all three primitives across the progress axis and
checks the :class:`~repro.preemption.costs.PreemptionAdvisor` against
the simulated ground truth: at every point, the advisor's pick should
be (near-)optimal under a latency+makespan cost blend.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import params as P
from repro.experiments.harness import sweep_grid
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import SweepOptions
from repro.metrics.series import Series
from repro.preemption.costs import PreemptionAdvisor


def combined_cost(sojourn: float, makespan: float, latency_weight: float) -> float:
    """The blended objective a scheduler trades off (Section IV-B's two
    metrics, weighted)."""
    return latency_weight * sojourn + makespan


def run_adaptive_study(
    runs: int = 5,
    progress_points: Optional[List[float]] = None,
    latency_weight: float = 1.0,
    base_seed: int = 9000,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Measure each primitive across r; compare with the advisor."""
    points = progress_points or [0.02, 0.25, 0.5, 0.75, 0.98]
    advisor = PreemptionAdvisor(fresh_threshold=0.05, nearly_done_threshold=0.95)
    task_duration = P.INPUT_BYTES / P.PARSE_RATE

    per_primitive: Dict[str, List[float]] = {"wait": [], "kill": [], "suspend": []}
    results = iter(sweep_grid(
        [
            dict(primitive=primitive, progress_at_launch=r)
            for r in points
            for primitive in per_primitive
        ],
        runs=runs, base_seed=base_seed, sweep=sweep,
    ))
    advisor_picks: List[str] = []
    advisor_costs: List[float] = []
    best_costs: List[float] = []
    for r in points:
        costs: Dict[str, float] = {}
        for primitive in per_primitive:
            result = next(results)
            costs[primitive] = combined_cost(
                result.sojourn_th.mean, result.makespan.mean, latency_weight
            )
            per_primitive[primitive].append(costs[primitive])
        pick = advisor.recommend(r, task_duration).value
        advisor_picks.append(pick)
        advisor_costs.append(costs[pick])
        best_costs.append(min(costs.values()))

    series = Series(
        name="adaptive-costs",
        x_label="tl progress at launch of th (%)",
        y_label=f"{latency_weight}*sojourn + makespan (s)",
        x_values=[p * 100 for p in points],
    )
    for primitive, values in per_primitive.items():
        series.add_curve(primitive, values)
    series.add_curve("advisor pick", advisor_costs)

    report = ExperimentReport(
        experiment_id="adaptive",
        title="per-victim primitive selection (the Section V-A advisor)",
        paper_expectation=(
            "kill is competitive for freshly started victims, wait for "
            "nearly-done ones, suspend everywhere else; the advisor should "
            "track the per-point optimum"
        ),
    )
    report.add_series(series)
    regret = max(a - b for a, b in zip(advisor_costs, best_costs))
    report.add_note(
        "advisor picks: "
        + ", ".join(f"{p*100:.0f}%->{pick}" for p, pick in zip(points, advisor_picks))
    )
    report.add_note(f"worst-case advisor regret: {regret:.1f} s")
    report.extras["picks"] = advisor_picks
    report.extras["regret"] = regret
    report.extras["advisor_costs"] = advisor_costs
    report.extras["best_costs"] = best_costs
    return report
