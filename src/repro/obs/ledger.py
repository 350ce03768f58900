"""The run ledger: an append-only JSONL stream of sweep lifecycle events.

One ledger file narrates one sweep (``<cache>/ledger.jsonl`` by
convention -- :data:`LEDGER_FILENAME`).  Every line is one JSON object
with a fixed envelope::

    {"v": 1, "seq": 3, "pid": 1234, "t": 1723.4, "event": "cell-finish", ...}

* ``v``     -- :data:`SCHEMA_VERSION`; replayers reject lines from a
  future schema instead of misreading them;
* ``seq``   -- per-process append counter (monotone within one ``pid``);
* ``pid``   -- the writing process (the supervisor's workers append
  their own snapshot events);
* ``t``     -- wall-clock seconds (:func:`time.time`); observation
  metadata only, never fed back into any simulation;
* ``event`` -- the event type; remaining keys are event-specific
  (see ARCHITECTURE.md's event schema table).

**Atomic line appends.**  The file is opened ``O_APPEND`` and every
record is written with a single ``os.write`` of one complete
``line + "\\n"`` -- on POSIX that makes concurrent appends from the
parent and worker processes interleave only at line boundaries.  The
one failure mode left is a writer SIGKILLed mid-``write`` leaving a
truncated final line; readers therefore *skip* any undecodable line
with a warning instead of raising (:func:`iter_ledger`), and treat a
final line that does not yet end in a newline as not yet written -- it
may simply not be finished (``repro watch`` folds it once its newline
arrives).

The ledger is trace- and RNG-silent by construction: it is written
from outside the simulation, between events, and nothing in the
simulator ever reads it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: ledger schema version; bump on any incompatible envelope change
SCHEMA_VERSION = 1

#: conventional ledger file name inside a sweep cache directory
LEDGER_FILENAME = "ledger.jsonl"


def ledger_path(directory: str) -> str:
    """The conventional ledger location for a sweep cache directory."""
    return os.path.join(directory, LEDGER_FILENAME)


class Ledger:
    """One sweep's event sink: in-process subscribers + optional file.

    ``emit`` builds the enveloped record, appends it to the file (one
    atomic ``os.write``), and hands it to every subscriber -- the
    console renderer, tests, anything.  A ``path`` of ``None`` makes
    the ledger purely in-process (subscribers still fire), which is
    how the renderer works for cacheless sweeps.

    Emission never raises into the sweep: a full disk or yanked
    directory degrades to a one-time warning, because observation must
    not take down the run it observes.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._seq = 0
        self._fd: Optional[int] = None
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []
        self._write_failed = False
        if path is not None:
            self._fd = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )

    def subscribe(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Add an in-process observer called with every emitted record."""
        self._subscribers.append(fn)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record and notify subscribers."""
        self._seq += 1
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "pid": os.getpid(),
            "t": round(time.time(), 6),
            "event": event,
        }
        record.update(fields)
        if self._fd is not None:
            line = json.dumps(record, separators=(",", ":"),
                              default=repr) + "\n"
            try:
                os.write(self._fd, line.encode("utf-8"))
            except OSError as exc:
                if not self._write_failed:
                    self._write_failed = True
                    print(
                        f"warning: ledger append to {self.path} failed "
                        f"({exc}); further events will not be persisted",
                        file=sys.stderr,
                    )
        for fn in self._subscribers:
            fn(record)
        return record

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_line(raw: bytes, lineno: int, path: str,
                 warn: bool = True) -> Optional[Dict[str, Any]]:
    """One ledger line -> record, or None (skipped) with a warning.

    Tolerates exactly the damage a SIGKILLed writer can inflict --
    truncated or interleaved bytes that are not valid JSON, or a valid
    object from a future schema -- because a live dashboard must keep
    rendering whatever the crash left behind.
    """
    try:
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        if warn:
            print(
                f"warning: skipping corrupt ledger line {lineno} of "
                f"{path} (truncated by a crash mid-append?)",
                file=sys.stderr,
            )
        return None
    if not isinstance(record, dict) or "event" not in record:
        if warn:
            print(
                f"warning: skipping malformed ledger line {lineno} of "
                f"{path} (no event field)",
                file=sys.stderr,
            )
        return None
    if record.get("v", 0) > SCHEMA_VERSION:
        if warn:
            print(
                f"warning: skipping ledger line {lineno} of {path}: "
                f"schema v{record.get('v')} is newer than this reader "
                f"(v{SCHEMA_VERSION})",
                file=sys.stderr,
            )
        return None
    return record


def iter_ledger(path: str, warn: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield every decodable record of a ledger file, in file order.

    Undecodable lines -- including a final line truncated by a crash
    mid-append -- are skipped with a stderr warning, never raised.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip() == b"":
                continue
            if not raw.endswith(b"\n"):
                # Final line without its newline: a crashed (or still
                # running) writer; treat as not-yet-written.
                if warn:
                    print(
                        f"warning: ignoring incomplete final ledger "
                        f"line {lineno} of {path}",
                        file=sys.stderr,
                    )
                return
            record = _decode_line(raw.rstrip(b"\n"), lineno, path, warn)
            if record is not None:
                yield record
