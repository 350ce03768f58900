"""The one replay recipe of the ``scale``, ``shuffle`` and ``memscale``
studies: build -> drive -> collect.

A study module keeps only what differs: ``_build_run`` (a loaded,
not yet driven cluster), the ``CELL_NAME``/``SKETCH_PREFIX`` format
strings over its cell params, ``_extra_metrics(cluster)`` and
``cell_seed``, the one owner of its seed coordinates.
:func:`finish_replay` is the only finish path -- fresh cells, ``repro
checkpoint``/``resume``, bench_guard and the supervisor's mid-cell
resume -- and :func:`run_replay_grid` plus the report helpers are the
shared tail of every ``run_*_study``.

A cell is driven by the cluster's one loop,
:meth:`~repro.hadoop.cluster.HadoopCluster.run_until_jobs_complete`,
which steps until no job is live and no SWIM arrival is still on the
event heap.  An :class:`AutoSnapshot` is that loop's between-steps
observer: it persists the cluster **between** engine steps -- never
as a scheduled event, which would bump ``events_fired`` and write a
TraceLog record, so a resumed run could no longer be byte-identical
to an undisturbed one.  Observation stays outside the event heap.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import Cell, SweepOptions
from repro.experiments.sketches import cell_sketch, merge_sketches
from repro.metrics.series import Series
from repro.metrics.stats import percentile, summarize
from repro.workloads.swim import MIXES, SwimGenerator

#: checkpoint/cell kind -> study module; every replay cell is
#: ``Cell(module, "_run_once", **params)`` and its checkpoint meta is
#: ``{"kind": kind, **params}``
REPLAY_STUDIES: Dict[str, str] = {
    "scale": "repro.experiments.scale_study",
    "shuffle": "repro.experiments.shuffle_study",
    "memscale": "repro.experiments.memscale_study",
}


def load_replay(cluster, collector, mix: str, arrival, num_jobs: int):
    """The common end of every ``_build_run``: attach the scheduler and
    telemetry ``collector``, submit ``num_jobs`` SWIM jobs of ``mix``
    arriving per ``arrival``.  Returns the cluster."""
    cluster.scheduler.attach_cluster(cluster)
    if collector is not None:
        collector.attach(cluster.sim.trace_log)
    generator = SwimGenerator(
        cluster.sim.rng.stream("swim"), classes=MIXES[mix], arrival=arrival
    )
    for spec in generator.generate_workload(num_jobs):
        cluster.submit_job(spec)
    return cluster


def replay_study(kind: str):
    """The study module behind a replay kind."""
    if kind not in REPLAY_STUDIES:
        raise ConfigurationError(
            f"unknown replay study {kind!r}; known: "
            f"{', '.join(sorted(REPLAY_STUDIES))}"
        )
    return importlib.import_module(REPLAY_STUDIES[kind])


def replay_kind(cell) -> Optional[str]:
    """The replay kind of a sweep cell, or None for any other cell."""
    if cell.func == "_run_once":
        for kind, module in REPLAY_STUDIES.items():
            if cell.module == module:
                return kind
    return None


def jobs_for(trackers: int, num_jobs: Optional[int]) -> int:
    """Workload length per cluster size: jobs scale with trackers (the
    SWIM day-in-the-life replay grows with the cluster it feeds)."""
    if num_jobs is None:
        return max(trackers, 10)
    if num_jobs < 1:
        raise ConfigurationError(f"num_jobs must be >= 1, got {num_jobs}")
    return num_jobs


# ----------------------------------------------------------------------
# Mid-cell auto-snapshot
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AutoSnapshot:
    """The drive loop's observer: persist the driven cluster to
    ``path`` every ``every`` virtual seconds, narrating each write to
    ``ledger`` (if any).

    ``meta`` is the continuation recipe ``{"kind": kind, **params}``,
    so a crashed shard can restore the file and finish the cell through
    :func:`finish_replay` instead of re-running it from zero.
    """

    path: str
    every: float
    meta: Dict[str, Any]
    ledger: Any = None

    def __call__(self, cluster) -> None:
        from repro.checkpoint.core import save

        save(cluster, self.path,
             meta={**self.meta, "midcell_now": cluster.sim.now})
        if self.ledger is not None:
            self.ledger.emit(
                "snapshot", path=self.path,
                virtual_now=round(cluster.sim.now, 6),
            )


# ----------------------------------------------------------------------
# One cell: build -> drive -> collect
# ----------------------------------------------------------------------


def run_replay(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Build and finish one fresh replay cell (every ``_run_once``)."""
    cluster = replay_study(kind)._build_run(**params)
    return finish_replay(cluster, {"kind": kind, **params})


def finish_replay(
    cluster, meta: Dict[str, Any], autosnapshot: Optional[AutoSnapshot] = None
) -> Dict[str, Any]:
    """Drive a built (or restored) replay cell to completion and
    collect its result dict.

    ``meta`` is ``{"kind": kind, **params}``: the cell's params name
    it, size its workload and choose the telemetry tails.  The result
    keys are the five common sojourn/waste columns, the study's
    ``_extra_metrics``, ``jobs_completed``, ``events`` and ``sketch``,
    then ``trace_digest``/``science_digest`` when ``trace`` is set and
    ``engine`` when ``profile`` is.  Small jobs (at most three maps)
    are re-identified from the specs, which ride inside a checkpoint.
    """
    study = replay_study(meta["kind"])
    cluster.run_until_jobs_complete(timeout=86_400.0, observer=autosnapshot)

    jobs = list(cluster.jobtracker.jobs.values())
    sojourns = sorted(
        job.sojourn_time for job in jobs if job.sojourn_time is not None
    )
    if not sojourns:
        # Name the stall instead of dividing by an empty job list.
        raise ConfigurationError(
            f"{meta['kind']} cell {study.CELL_NAME.format(**meta)} drained "
            f"its event queue with 0/{meta['num_jobs']} jobs complete "
            "(scheduling deadlock?)"
        )
    small = [
        job.sojourn_time
        for job in jobs
        if len(job.spec.map_tasks) <= 3 and job.sojourn_time is not None
    ]
    finish = max(job.finish_time for job in jobs if job.finish_time is not None)
    out = {
        "mean_sojourn": sum(sojourns) / len(sojourns),
        "p95_sojourn": percentile(sojourns, 95),
        "small_mean_sojourn": sum(small) / len(small) if small else 0.0,
        "makespan": finish,
        "wasted": cluster.jobtracker.wasted.total(),
        **study._extra_metrics(cluster),
        "jobs_completed": float(cluster.jobtracker.jobs_completed),
        "events": float(cluster.sim.events_fired),
    }
    out["sketch"] = cell_sketch(
        study.SKETCH_PREFIX.format(**meta), sojourns, small, out
    )
    if meta.get("trace"):
        out["trace_digest"] = cluster.sim.trace_log.digest()
        out["science_digest"] = cluster.sim.trace_log.science_digest()
    if meta.get("profile"):
        from repro.telemetry.profiling import engine_stats

        out["engine"] = engine_stats(cluster.sim)
    return out


# ----------------------------------------------------------------------
# One sweep: grid -> cells -> metrics -> report tail
# ----------------------------------------------------------------------


def metrics_digest(metrics: Dict) -> str:
    """SHA-256 of the full nested metric structure.

    ``repr`` round-trips floats exactly, so two digests match iff
    every metric of every cell is bit-identical -- the value the
    serial-vs-parallel acceptance test compares.
    """
    return hashlib.sha256(repr(sorted(metrics.items())).encode("utf-8")).hexdigest()


@dataclass
class ReplayGrid:
    """One swept grid: ``metrics[a0][a1]...[key]`` holds one value per
    repetition, ``results`` the raw cell dicts in grid order."""

    metrics: Dict
    results: List[Dict[str, Any]]
    digest: str


def run_replay_grid(
    kind: str,
    axes: Sequence[Sequence[Any]],
    runs: int,
    params_for: Callable[..., Dict[str, Any]],
    metric_keys: Sequence[str],
    sweep: SweepOptions = SweepOptions(),
) -> ReplayGrid:
    """Run ``runs`` repetitions of every point of ``axes`` as one sweep.

    ``params_for(*point, rep)`` gives a cell's ``_run_once`` params;
    cells run in ``itertools.product`` order, repetitions innermost.
    """
    if runs < 1:
        raise ConfigurationError("need at least one run")
    points = list(itertools.product(*axes))
    cells = [
        Cell.make(REPLAY_STUDIES[kind], "_run_once", **params_for(*point, rep))
        for point in points
        for rep in range(runs)
    ]
    results = sweep.run(cells)
    metrics: Dict = {}
    leaves = {}
    for point in points:
        node = metrics
        for coordinate in point[:-1]:
            node = node.setdefault(coordinate, {})
        leaves[point] = node.setdefault(
            point[-1], {key: [] for key in metric_keys}
        )
    for index, out in enumerate(results):
        for key in metric_keys:
            leaves[points[index // runs]][key].append(out[key])
    flat = {
        "/".join(map(str, (*point, key))): tuple(leaf[key])
        for point, leaf in leaves.items()
        for key in metric_keys
    }
    return ReplayGrid(metrics, results, metrics_digest(flat))


def add_trackers_series(
    report,
    prefix: str,
    by_size: Dict,
    sizes: Sequence[int],
    curves: Sequence[str],
    figures: Sequence[Tuple[str, str]],
) -> None:
    """One series per ``(key, y_label)`` of ``figures``: cluster size on
    x, one curve per entry of ``curves``, each point the mean over the
    repetitions in ``by_size[size][curve][key]``."""
    for key, y_label in figures:
        series = Series(
            name=f"{prefix}-{key.replace('_', '-')}",
            x_label="trackers",
            y_label=y_label,
            x_values=[float(size) for size in sizes],
        )
        for curve in curves:
            series.add_curve(
                curve,
                [summarize(by_size[size][curve][key]).mean for size in sizes],
            )
        report.add_series(series)


def add_digests(report, grid: ReplayGrid) -> None:
    """The shared report tail: metric and sketch digest notes, then the
    metrics and merged sketch in ``extras``."""
    report.add_note(f"metrics digest: {grid.digest}")
    sketch = merge_sketches(grid.results)
    report.add_note(f"sketch digest: {sketch.digest()}")
    report.extras["metrics"] = grid.metrics
    report.extras["digest"] = grid.digest
    report.extras["sketch"] = sketch.to_dict()
    report.extras["sketch_digest"] = sketch.digest()
