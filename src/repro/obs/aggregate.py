"""Streaming aggregation of a run ledger into live sweep state.

:class:`SweepState` is a pure fold over ledger events: feed it every
record (live from a :class:`~repro.obs.ledger.Ledger` subscription, or
replayed from the file) and it maintains, incrementally,

* **progress** -- per-cell status (pending / running / done / cached /
  quarantined), attempt counts and failure causes;
* **a merged metric registry** -- each ``cell-finish`` event's sketch
  payload is folded into one running
  :class:`~repro.telemetry.registry.MetricRegistry` the moment it
  lands (the registry's merge is exact and order-insensitive, so the
  mid-sweep merged state after N cells equals what a post-hoc merge of
  those N sketches would build), giving live sojourn quantiles without
  holding any full result in memory;
* **throughput and ETA** -- completion rate over a sliding window of
  recent finishes, weighted by each cell's *virtual cost* (its
  simulation's fired-event count when the result reports one), so one
  400-tracker cell counts for what it costs, not what one grid slot
  suggests;
* the latest **supervisor counters** snapshot and worker lifecycle
  tallies.

Because the fold is deterministic in the event sequence,
:func:`replay` -- fold the whole file -- reconstructs the exact state
the live subscription built, which is how ``repro watch`` backfills on
attach and how the schema tests pin the format.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.ledger import iter_ledger

#: finishes remembered for the sliding throughput window
RATE_WINDOW = 32

#: cell states the table reports, in lifecycle order
CELL_STATES = ("pending", "running", "done", "cached", "quarantined")


class SweepState:
    """Live state of one sweep, folded from its ledger events."""

    def __init__(self) -> None:
        self.schema_version: Optional[int] = None
        self.total = 0
        self.workers = 0
        self.grid_digest: Optional[str] = None
        self.experiment: Optional[str] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cells: Dict[int, Dict[str, Any]] = {}
        self.counters: Dict[str, int] = {}
        self.worker_events: Dict[str, int] = {}
        self.snapshots = 0
        self.event_counts: Dict[str, int] = {}
        self.events_applied = 0
        # (wall time, virtual cost) of recent finishes, oldest first
        self._finish_window: Deque[Tuple[float, float]] = deque(
            maxlen=RATE_WINDOW
        )
        self._done_cost = 0.0
        self._registry = None  # lazy: telemetry import only when needed

    # -- folding -------------------------------------------------------

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one ledger record into the state."""
        event = record.get("event", "")
        self.events_applied += 1
        self.event_counts[event] = self.event_counts.get(event, 0) + 1
        handler = getattr(self, "_on_" + event.replace("-", "_"), None)
        if handler is not None:
            handler(record)

    def _cell(self, index: int) -> Dict[str, Any]:
        cell = self.cells.get(index)
        if cell is None:
            cell = {
                "index": index,
                "key": None,
                "label": None,
                "state": "pending",
                "attempts": 0,
                "causes": [],
            }
            self.cells[index] = cell
        return cell

    def _on_sweep_start(self, record: Dict[str, Any]) -> None:
        self.schema_version = record.get("v")
        self.total = int(record.get("total", 0))
        self.workers = int(record.get("workers", 0))
        self.grid_digest = record.get("grid_digest")
        self.experiment = record.get("experiment")
        self.started_at = record.get("t")
        for entry in record.get("cells", []):
            cell = self._cell(int(entry["index"]))
            cell["key"] = entry.get("key")
            cell["label"] = entry.get("label")

    def _on_cell_cached(self, record: Dict[str, Any]) -> None:
        cell = self._cell(int(record["index"]))
        cell["state"] = "cached"

    def _on_cell_start(self, record: Dict[str, Any]) -> None:
        cell = self._cell(int(record["index"]))
        cell["state"] = "running"
        cell["attempts"] = int(record.get("attempt", 0)) + 1

    def _on_cell_finish(self, record: Dict[str, Any]) -> None:
        cell = self._cell(int(record["index"]))
        cell["state"] = "done"
        cost = float(record.get("cost", 1.0) or 1.0)
        cell["cost"] = cost
        self._done_cost += cost
        self._finish_window.append((record.get("t", 0.0), cost))
        sketch = record.get("sketch")
        if sketch:
            from repro.telemetry.registry import MetricRegistry

            shard = MetricRegistry.from_dict(sketch)
            if self._registry is None:
                self._registry = MetricRegistry()
            self._registry.merge(shard)

    def _on_cell_retry(self, record: Dict[str, Any]) -> None:
        cell = self._cell(int(record["index"]))
        cell["state"] = "pending"
        cell["causes"].append(record.get("cause", "unknown"))

    def _on_cell_quarantine(self, record: Dict[str, Any]) -> None:
        cell = self._cell(int(record["index"]))
        cell["state"] = "quarantined"
        cell["attempts"] = int(record.get("attempts", cell["attempts"]))
        cause = record.get("cause")
        if cause:
            cell["causes"].append(cause)

    def _on_worker_spawn(self, record: Dict[str, Any]) -> None:
        self.worker_events["spawns"] = self.worker_events.get("spawns", 0) + 1

    def _on_worker_death(self, record: Dict[str, Any]) -> None:
        self.worker_events["deaths"] = self.worker_events.get("deaths", 0) + 1

    def _on_worker_retire(self, record: Dict[str, Any]) -> None:
        self.worker_events["retires"] = (
            self.worker_events.get("retires", 0) + 1
        )

    def _on_snapshot(self, record: Dict[str, Any]) -> None:
        self.snapshots += 1

    def _on_counters(self, record: Dict[str, Any]) -> None:
        self.counters = dict(record.get("counters", {}))

    def _on_sweep_finish(self, record: Dict[str, Any]) -> None:
        self.finished_at = record.get("t")
        counters = record.get("counters")
        if counters:
            self.counters = dict(counters)

    # -- derived reads -------------------------------------------------

    @property
    def registry(self):
        """The running merged metric registry (None before the first
        sketch-bearing finish)."""
        return self._registry

    def count(self, state: str) -> int:
        return sum(1 for c in self.cells.values() if c["state"] == state)

    @property
    def done(self) -> int:
        """Cells whose result exists (freshly finished or cached)."""
        return self.count("done") + self.count("cached")

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def rate(self, now: Optional[float] = None) -> float:
        """Virtual cost completed per wall second, over the window."""
        window = list(self._finish_window)
        if len(window) < 2:
            return 0.0
        if now is None:
            now = window[-1][0]
        start = window[0][0]
        elapsed = max(now - start, 1e-9)
        # The first sample anchors the window; its cost predates it.
        cost = sum(c for _t, c in window[1:])
        return cost / elapsed

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Projected wall seconds to completion (None = unknowable).

        Remaining cost is the mean observed per-cell cost times the
        cells still outstanding; the rate is the sliding-window
        throughput.  Both are cost-weighted, so a tail of heavy
        400-tracker cells projects honestly instead of by cell count.
        """
        if self.finished:
            return 0.0
        remaining = self.total - self.done - self.count("quarantined")
        if remaining <= 0:
            return 0.0
        completed = self.count("done")
        current = self.rate(now)
        if completed == 0 or current <= 0:
            return None
        mean_cost = self._done_cost / completed
        return remaining * mean_cost / current

    def sketch_summary(self, quantiles=(0.5, 0.95)) -> Dict[str, Dict]:
        """Live per-histogram headline stats from the merged registry."""
        if self._registry is None:
            return {}
        out: Dict[str, Dict] = {}
        for name, metric in self._registry:
            if getattr(metric, "kind", "") != "histogram":
                continue
            if metric.count == 0:
                continue
            entry = {"count": metric.count, "mean": metric.mean()}
            for q in quantiles:
                entry[f"p{int(q * 100)}"] = metric.quantile(q)
            out[name] = entry
        return out

    def to_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The JSON-ready snapshot that ``repro watch`` renders."""
        if now is None:
            now = time.time()
        eta = self.eta_seconds(now)
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "grid_digest": self.grid_digest,
            "total": self.total,
            "workers": self.workers,
            "progress": {
                state: self.count(state) for state in CELL_STATES
            },
            "done": self.done,
            "finished": self.finished,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "rate_cost_per_s": self.rate(now if not self.finished else None),
            "eta_seconds": eta,
            "cells": [self.cells[i] for i in sorted(self.cells)],
            "supervisor": dict(self.counters),
            "worker_events": dict(self.worker_events),
            "snapshots": self.snapshots,
            "event_counts": dict(self.event_counts),
            "sketch": self.sketch_summary(),
            "sketch_digest": (
                self._registry.digest() if self._registry else None
            ),
        }


def replay(path: str, warn: bool = True) -> SweepState:
    """Reconstruct a sweep's state from its ledger file.

    A pure fold of :func:`~repro.obs.ledger.iter_ledger` -- the state
    a live subscriber held after the same events, bit for bit
    (the sketch-digest test pins exactly that).  Corrupt or truncated
    lines are skipped by the reader, never fatal.
    """
    state = SweepState()
    for record in iter_ledger(path, warn=warn):
        state.apply(record)
    return state
