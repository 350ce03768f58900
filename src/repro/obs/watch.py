"""``repro watch``: an ANSI terminal dashboard over a sweep's state.

Watches a sweep directory or its ``ledger.jsonl``: it backfills by
folding the whole file, then folds only what is appended, live or after
the sweep has finished.  :func:`render_dashboard` turns the folded
state's snapshot dict into one screenful.

The redraw is curses-free: home the cursor, repaint, erase the
remainder (``ESC[H`` ... ``ESC[J]``).  ``--once`` renders a single
frame and exits (how the tests and the README transcript drive it).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.aggregate import SweepState
from repro.obs.ledger import _decode_line, ledger_path

#: cells shown in the table; the rest collapse into a summary line
MAX_ROWS = 24

_BAR_WIDTH = 40


def _bar(done: int, quarantined: int, total: int) -> str:
    if total <= 0:
        return "[" + " " * _BAR_WIDTH + "]"
    full = int(_BAR_WIDTH * done / total)
    bad = int(_BAR_WIDTH * quarantined / total)
    if quarantined and bad == 0:
        bad = 1
    full = min(full, _BAR_WIDTH - bad)
    return "[" + "#" * full + "!" * bad + "." * (_BAR_WIDTH - full - bad) + "]"


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


_STATE_MARKS = {
    "done": "x", "cached": "c", "running": ">",
    "quarantined": "q", "pending": " ",
}


class _Follower:
    """Incremental ledger -> :class:`SweepState` fold.

    Each :meth:`refresh` reads only the bytes appended since the last
    one and holds back a final line without its newline until the
    writer finishes it, so every record is folded exactly once.
    """

    def __init__(self, path: str):
        self.path = path
        self.state = SweepState()
        self._offset = 0
        self._lineno = 0
        self._buffer = b""

    def refresh(self) -> SweepState:
        """Fold any newly appended complete lines, then return state."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return self.state
        self._offset += len(chunk)
        self._buffer += chunk
        while b"\n" in self._buffer:
            raw, self._buffer = self._buffer.split(b"\n", 1)
            self._lineno += 1
            record = _decode_line(raw, self._lineno, self.path, warn=False)
            if record is not None:
                self.state.apply(record)
        return self.state


def render_dashboard(state: Dict[str, Any], width: int = 100) -> str:
    """One screenful of sweep state from a
    :meth:`~repro.obs.aggregate.SweepState.to_dict` snapshot."""
    total = state.get("total", 0)
    done = state.get("done", 0)
    progress = state.get("progress", {})
    quarantined = progress.get("quarantined", 0)
    running = progress.get("running", 0)
    lines = []
    title = state.get("experiment") or "sweep"
    status = "FINISHED" if state.get("finished") else (
        f"{running} running" if running else "waiting"
    )
    lines.append(f"repro watch -- {title}  [{status}]")
    lines.append(
        f"{_bar(done, quarantined, total)} {done}/{total} cells"
        + (f"  ({quarantined} quarantined)" if quarantined else "")
    )
    rate = state.get("rate_cost_per_s") or 0.0
    lines.append(
        f"rate {rate:.1f} cost/s   eta {_fmt_seconds(state.get('eta_seconds'))}"
        + (f"   snapshots {state['snapshots']}"
           if state.get("snapshots") else "")
    )
    supervisor = {
        k: v for k, v in sorted((state.get("supervisor") or {}).items()) if v
    }
    if supervisor:
        lines.append(
            "supervisor: " + ", ".join(f"{k}={v}" for k, v in supervisor.items())
        )
    sketch = state.get("sketch") or {}
    if sketch:
        lines.append("")
        lines.append("live merged sketches (mid-sweep quantiles):")
        for name, entry in sorted(sketch.items())[:8]:
            lines.append(
                f"  {name}: n={entry['count']} mean={entry['mean']:.1f} "
                f"p50={entry.get('p50', 0.0):.1f} "
                f"p95={entry.get('p95', 0.0):.1f}"
            )
        if len(sketch) > 8:
            lines.append(f"  ... and {len(sketch) - 8} more histograms")
    cells = state.get("cells") or []
    if cells:
        lines.append("")
        for cell in cells[:MAX_ROWS]:
            mark = _STATE_MARKS.get(cell.get("state"), "?")
            label = cell.get("label") or cell.get("key") or f"#{cell['index']}"
            line = f"  [{mark}] {label}"
            if cell.get("attempts", 0) > 1:
                line += f"  (attempt {cell['attempts']})"
            causes = cell.get("causes") or []
            if causes and cell.get("state") == "quarantined":
                line += f"  <- {causes[-1]}"
            lines.append(line[:width])
        if len(cells) > MAX_ROWS:
            lines.append(f"  ... and {len(cells) - MAX_ROWS} more cells")
    return "\n".join(lines)


def watch(
    target: str,
    interval: float = 0.5,
    once: bool = False,
    out=None,
    max_seconds: Optional[float] = None,
) -> int:
    """Render the live dashboard until the sweep finishes.

    ``target`` is a sweep directory (containing ``ledger.jsonl``) or a
    ledger file path.  Returns 0 when the sweep finished, 1 when
    ``max_seconds`` elapsed first.
    """
    out = out if out is not None else sys.stdout
    path = ledger_path(target) if os.path.isdir(target) else target
    if not os.path.exists(path):
        raise ConfigurationError(
            f"{target}: no ledger found (expected a sweep directory "
            "with a ledger.jsonl, or a ledger file)"
        )
    follower = _Follower(path)
    started = time.monotonic()
    is_tty = hasattr(out, "isatty") and out.isatty()
    while True:
        state = follower.refresh().to_dict()
        frame = render_dashboard(state)
        if is_tty and not once:
            # Home, repaint, erase whatever the last frame left behind.
            out.write("\x1b[H" + frame + "\x1b[J\n")
        else:
            out.write(frame + "\n")
        out.flush()
        if once or state.get("finished"):
            return 0
        if max_seconds is not None and (
            time.monotonic() - started > max_seconds
        ):
            return 1
        time.sleep(interval)
