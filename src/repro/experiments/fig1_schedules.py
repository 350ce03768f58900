"""Figure 1: task execution schedules.

The paper's Figure 1 sketches how tl and th share the slot under the
three primitives.  This experiment runs one traced simulation per
primitive at r=50% and renders the actual schedules as ASCII Gantt
charts -- the same picture, regenerated from the mechanism instead of
drawn by hand.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.harness import SingleRunResult, TwoJobHarness
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import Cell, SweepOptions
from repro.metrics.timeline import TimelineSegment, extract_timeline, render_gantt

PRIMITIVES = ("wait", "kill", "suspend")


def _short_name(attempt_id: str) -> str:
    """attempt_task_0001_m_000000_0 -> readable label."""
    parts = attempt_id.split("_")
    if len(parts) >= 5:
        job, role, attempt_no = parts[2], parts[3], parts[-1]
        return f"job{job}-{role}{int(parts[4])}-a{attempt_no}"
    return attempt_id


def schedule_cell(
    primitive: str, progress_at_launch: float, seed: int, heavy: bool = False
) -> Tuple[List[TimelineSegment], SingleRunResult]:
    """One traced two-job run: the work attempts' schedule segments
    (setup/cleanup skipped) and the run's metrics."""
    result = TwoJobHarness(
        primitive=primitive,
        progress_at_launch=progress_at_launch,
        heavy=heavy,
        keep_traces=True,
    ).run_once(seed)
    segments = [
        s
        for s in extract_timeline(result.trace_cluster.sim.trace_log)
        if "_m_" in s.task
    ]
    # The cluster stays here: a worker returns plain values.
    result.trace_cluster = None
    return segments, result


def run_fig1(
    progress_at_launch: float = 0.5,
    base_seed: int = 500,
    sweep: SweepOptions = SweepOptions(),
) -> ExperimentReport:
    """Render the execution schedule of each primitive at r=50%.

    One cell per primitive, all through one ``sweep``."""
    report = ExperimentReport(
        experiment_id="fig1",
        title="task execution schedules (wait / kill / suspend)",
        paper_expectation=(
            "wait: th queues behind tl; kill: tl restarts from scratch "
            "after th; suspend: tl pauses (dotted) and continues where it "
            "stopped"
        ),
    )
    cells = [
        Cell.make(
            "repro.experiments.fig1_schedules",
            "schedule_cell",
            primitive=primitive,
            progress_at_launch=progress_at_launch,
            seed=base_seed,
        )
        for primitive in PRIMITIVES
    ]
    charts: Dict[str, str] = {}
    for primitive, (segments, result) in zip(PRIMITIVES, sweep.run(cells)):
        for segment in segments:
            segment.task = _short_name(segment.task)
        charts[primitive] = render_gantt(segments)
        report.add_note(
            f"[{primitive}] th sojourn {result.sojourn_th:.1f}s, "
            f"makespan {result.makespan:.1f}s"
        )
    body = "\n\n".join(
        f"--- {name} ---\n{chart}" for name, chart in charts.items()
    )
    report.extras["charts"] = charts
    report.extras["rendered"] = body
    report.add_note("schedules:\n" + body)
    return report
