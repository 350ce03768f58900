"""Run an experiment cell with telemetry attached and export it.

``repro trace <exp>`` needs a simulated run with a
:class:`~repro.telemetry.spans.SpanCollector` subscribed and the
engine profiling; this module owns that glue so the CLI stays thin and
tests can drive the exact same path.  One
:func:`capture_experiment` call runs a *representative cell* (or
cells) of the named experiment -- for ``fig2``/``fig3`` every
primitive at the paper's r=50% point, for the replay studies one
canonical cell -- and returns a :class:`TelemetryCapture` whose
``to_chrome()`` is ready for :func:`~repro.telemetry.export.
write_chrome_trace`.

The captures reuse the experiments' own cell functions with their own
derived seeds, so a captured run is the same simulation the sweep
would run -- the trace is of the science, not of a demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.telemetry.profiling import engine_stats
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import SpanCollector

#: experiments capture_experiment knows how to trace
SUPPORTED = ("fig2", "fig3", "scale", "shuffle", "memscale")


@dataclass
class CellCapture:
    """Everything telemetry saw in one traced cell."""

    name: str
    collector: SpanCollector
    registry: MetricRegistry = field(default_factory=MetricRegistry)
    wasted_by_cause: Dict[str, float] = field(default_factory=dict)
    engine: Dict[str, Any] = field(default_factory=dict)
    end_time: float = 0.0


class TelemetryCapture:
    """The traced cells of one ``repro trace`` invocation."""

    def __init__(self, experiment: str, cells: List[CellCapture]):
        self.experiment = experiment
        self.cells = cells

    def to_chrome(self) -> Dict[str, Any]:
        from repro.telemetry.export import to_chrome_trace

        return to_chrome_trace(
            [
                (cell.name, cell.collector.spans, cell.collector.instants)
                for cell in self.cells
            ]
        )


def capture_experiment(
    name: str,
    quick: bool = False,
    seed: Optional[int] = None,
    profile: bool = True,
    heartbeats: bool = False,
) -> TelemetryCapture:
    """Trace a representative cell (or cells) of ``name``."""
    if name == "fig2":
        return _capture_two_job(name, heavy=False, seed=seed, profile=profile,
                                heartbeats=heartbeats)
    if name == "fig3":
        return _capture_two_job(name, heavy=True, seed=seed, profile=profile,
                                heartbeats=heartbeats)
    if name == "scale":
        return _capture_scale(quick=quick, seed=seed, profile=profile,
                              heartbeats=heartbeats)
    if name == "shuffle":
        return _capture_shuffle(quick=quick, seed=seed, profile=profile,
                                heartbeats=heartbeats)
    if name == "memscale":
        return _capture_memscale(quick=quick, seed=seed, profile=profile,
                                 heartbeats=heartbeats)
    raise ConfigurationError(
        f"cannot trace {name!r}; traceable experiments: "
        + ", ".join(SUPPORTED)
    )


# -- the paper's two-job microbenchmark -----------------------------------


def _capture_two_job(
    name: str, heavy: bool, seed: Optional[int], profile: bool,
    heartbeats: bool = False,
) -> TelemetryCapture:
    from repro.experiments.harness import TwoJobHarness

    base_seed = 1000 if seed is None else seed
    cells: List[CellCapture] = []
    for primitive in ("wait", "kill", "suspend"):
        collector = SpanCollector(include_heartbeats=heartbeats)
        harness = TwoJobHarness(
            primitive=primitive,
            progress_at_launch=0.5,
            heavy=heavy,
            runs=1,
            base_seed=base_seed,
            keep_traces=True,
            collector=collector,
            profile=profile,
        )
        result = harness.run_once(seed=base_seed)
        cluster = result.trace_cluster
        collector.close_open(cluster.sim.now)
        registry = MetricRegistry()
        registry.observe(f"{primitive}/sojourn_th", result.sojourn_th)
        registry.observe(f"{primitive}/makespan", result.makespan)
        registry.observe(
            f"{primitive}/tl_wasted_seconds", result.tl_wasted_seconds
        )
        registry.counter(f"{primitive}/suspends").inc(result.suspend_count)
        registry.counter(f"{primitive}/tl_paged_bytes").inc(
            result.tl_paged_bytes
        )
        cells.append(
            CellCapture(
                name=f"{name}/{primitive}",
                collector=collector,
                registry=registry,
                wasted_by_cause=cluster.jobtracker.wasted.by_cause(),
                engine=engine_stats(cluster.sim),
                end_time=cluster.sim.now,
            )
        )
    return TelemetryCapture(name, cells)


# -- replay studies: one canonical cell each ------------------------------


def _capture_scale(
    quick: bool, seed: Optional[int], profile: bool,
    heartbeats: bool = False,
) -> TelemetryCapture:
    from repro.experiments.scale_study import _run_once, cell_seed

    trackers = 10 if quick else 25
    if seed is None:
        seed = cell_seed("baseline", trackers, "suspend")
    collector = SpanCollector(include_heartbeats=heartbeats)
    out = _run_once(
        scenario="baseline",
        primitive_name="suspend",
        trackers=trackers,
        num_jobs=trackers,
        seed=seed,
        collector=collector,
        profile=profile,
    )
    return _study_capture(
        "scale", f"scale/baseline/{trackers}/suspend", collector, out
    )


def _capture_shuffle(
    quick: bool, seed: Optional[int], profile: bool,
    heartbeats: bool = False,
) -> TelemetryCapture:
    from repro.experiments.shuffle_study import _run_once, cell_seed

    trackers = 10 if quick else 25
    if seed is None:
        seed = cell_seed(trackers, "kill")
    collector = SpanCollector(include_heartbeats=heartbeats)
    out = _run_once(
        primitive_name="kill",
        trackers=trackers,
        num_jobs=trackers,
        oversubscription=2.5,
        seed=seed,
        collector=collector,
        profile=profile,
    )
    return _study_capture(
        "shuffle", f"shuffle/kill/{trackers}/2.5x", collector, out
    )


def _capture_memscale(
    quick: bool, seed: Optional[int], profile: bool,
    heartbeats: bool = False,
) -> TelemetryCapture:
    from repro.experiments.memscale_study import _run_once, cell_seed

    trackers = 10 if quick else 25
    if seed is None:
        seed = cell_seed(trackers, "suspend-gated")
    collector = SpanCollector(include_heartbeats=heartbeats)
    out = _run_once(
        mode="suspend-gated",
        trackers=trackers,
        num_jobs=trackers,
        seed=seed,
        collector=collector,
        profile=profile,
    )
    return _study_capture(
        "memscale", f"memscale/suspend-gated/{trackers}", collector, out
    )


def _study_capture(
    experiment: str, cell_name: str, collector: SpanCollector, out: Dict
) -> TelemetryCapture:
    collector.close_open(float(out["makespan"]))
    cell = CellCapture(
        name=cell_name,
        collector=collector,
        registry=MetricRegistry.from_dict(out.get("sketch", {})),
        engine=out.get("engine", {}),
        end_time=float(out["makespan"]),
    )
    return TelemetryCapture(experiment, [cell])
