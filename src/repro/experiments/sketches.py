"""Per-cell metric sketches for the replay studies.

Every replay cell (``scale`` / ``shuffle`` / ``memscale``) streams its
per-job sojourns and scalar outcomes into a
:class:`~repro.telemetry.registry.MetricRegistry` and ships the
JSON-able snapshot back in its result dict under ``"sketch"``.  The
parent folds the shard sketches into one registry --
:func:`merge_sketches` -- whose digest is byte-identical for any
``--workers`` count or merge order (the registry's exact-arithmetic
guarantee), giving the sweeps distribution-level reporting (p50/p95
over *jobs*, not just per-cell means) without materialising a sojourn
list per cell.

The sketch rides alongside the historical scalar metrics; it never
feeds them, so every pre-existing metrics digest is unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.telemetry.registry import MetricRegistry

#: scalar outcomes recorded as one histogram sample per cell (floats;
#: the exact histogram sum reconstructs the sweep total)
FLOAT_KEYS = (
    "makespan",
    "wasted",
    "wasted_net_mb",
    "swap_out_mb",
    "peak_suspended_mb",
)

#: scalar outcomes recorded as counters (integer totals across cells)
COUNT_KEYS = (
    "preemptions",
    "jobs_completed",
    "events",
    "oom_kills",
    "suspend_denials",
    "jobs_failed",
)


def cell_sketch(
    prefix: str,
    sojourns: Iterable[float],
    small_sojourns: Iterable[float],
    out: Dict[str, float],
) -> Dict:
    """Sketch one cell's outcomes under ``prefix`` (the cell's
    coordinate path, e.g. ``baseline/50/suspend/``)."""
    registry = MetricRegistry()
    sojourn_hist = registry.histogram(prefix + "sojourn")
    for value in sojourns:
        sojourn_hist.observe(value)
    small_hist = registry.histogram(prefix + "small_sojourn")
    for value in small_sojourns:
        small_hist.observe(value)
    for key in FLOAT_KEYS:
        if key in out:
            registry.observe(prefix + key, float(out[key]))
    for key in COUNT_KEYS:
        if key in out:
            registry.counter(prefix + key).inc(int(out[key]))
    return registry.to_dict()


def merge_sketches(results: Iterable[Dict]) -> MetricRegistry:
    """Fold the ``"sketch"`` payloads of a result list into one
    registry (order-insensitive by construction)."""
    merged = MetricRegistry()
    for out in results:
        payload = out.get("sketch")
        if payload:
            merged.merge(MetricRegistry.from_dict(payload))
    return merged
