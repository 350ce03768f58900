"""The runner's stderr progress lines, rendered from ledger events.

One renderer, one source of truth: the serial and supervised paths
both emit the same ledger events, and this subscriber turns them into
the familiar ``[3/12] done ...`` lines.  Because ``repro watch`` folds
the *same* events, the two views cannot disagree about what the sweep
has done.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional, TextIO

from repro.obs.aggregate import SweepState


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return ""
    if seconds >= 3600:
        return f", eta ~{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f", eta ~{seconds / 60:.1f}m"
    return f", eta ~{seconds:.0f}s"


class ConsoleRenderer:
    """Subscribe me to a :class:`~repro.obs.ledger.Ledger` for progress
    lines on stderr.

    Maintains its own :class:`~repro.obs.aggregate.SweepState` fold so
    the counts, rate and ETA it prints are exactly the ones ``repro
    watch`` would show at the same instant.
    """

    def __init__(self, out: TextIO = None):
        self.out = out if out is not None else sys.stderr
        self.state = SweepState()

    def _print(self, message: str) -> None:
        print(message, file=self.out, flush=True)

    def __call__(self, record: Dict[str, Any]) -> None:
        self.state.apply(record)
        handler = getattr(
            self, "_on_" + record.get("event", "").replace("-", "_"), None
        )
        if handler is not None:
            handler(record)

    # -- per-event lines ----------------------------------------------

    def _on_sweep_start(self, record: Dict[str, Any]) -> None:
        cached = int(record.get("cached", 0))
        total = self.state.total
        workers = self.state.workers
        line = f"[sweep] {total} cells over {workers} worker(s)"
        if record.get("ledger_path"):
            line += f"; ledger {record['ledger_path']}"
        self._print(line)
        if cached:
            self._print(
                f"[cache] {cached}/{total} cells already checkpointed; "
                f"running {total - cached}"
            )

    def _on_cell_start(self, record: Dict[str, Any]) -> None:
        attempt = int(record.get("attempt", 0))
        suffix = f" (attempt {attempt + 1})" if attempt else ""
        self._print(
            f"[{self.state.done + 1}/{self.state.total}] start "
            f"{record.get('label', record.get('key', '?'))}{suffix}"
        )

    def _on_cell_finish(self, record: Dict[str, Any]) -> None:
        done, total = self.state.done, self.state.total
        remaining = total - done - self.state.count("quarantined")
        line = (
            f"[{done}/{total}] done "
            f"{record.get('label', record.get('key', '?'))}"
        )
        duration = record.get("duration_s")
        if duration is not None:
            line += f" in {duration:.1f}s"
        line += f" ({remaining} remaining"
        line += _fmt_eta(self.state.eta_seconds(record.get("t")))
        line += ")"
        self._print(line)

    def _on_cell_retry(self, record: Dict[str, Any]) -> None:
        self._print(
            f"[supervisor] cell {record.get('index')} failed "
            f"({record.get('cause', 'unknown')}); retry "
            f"{record.get('attempt', '?')}/{record.get('max_retries', '?')} "
            "queued"
        )

    def _on_cell_quarantine(self, record: Dict[str, Any]) -> None:
        self._print(
            f"[supervisor] cell {record.get('index')} quarantined after "
            f"{record.get('attempts', '?')} attempt(s): "
            f"{record.get('cause', 'unknown')}"
        )

    def _on_worker_death(self, record: Dict[str, Any]) -> None:
        self._print(
            f"[supervisor] shard {record.get('slot')} "
            f"{record.get('cause', 'died')}; restarting "
            f"(death {record.get('deaths', '?')}/"
            f"{record.get('death_cap', '?')})"
        )

    def _on_worker_retire(self, record: Dict[str, Any]) -> None:
        self._print(
            f"[supervisor] shard {record.get('slot')} retired after "
            f"{record.get('deaths', '?')} consecutive deaths; pool "
            f"shrinks to {record.get('remaining', '?')} worker(s)"
        )

    def _on_sweep_finish(self, record: Dict[str, Any]) -> None:
        quarantined = self.state.count("quarantined")
        line = (
            f"[sweep] finished: {self.state.done}/{self.state.total} "
            "cells done"
        )
        if quarantined:
            line += f", {quarantined} quarantined"
        self._print(line)
