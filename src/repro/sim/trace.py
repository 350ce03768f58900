"""Simulation trace log.

A :class:`TraceLog` collects ``(time, label, fields)`` records of two
kinds.  *Engine* records (:meth:`TraceLog.record_fired`) note every
fired event -- the engine's bookkeeping.  *Domain* records
(:meth:`TraceLog.record`, behind the components' ``trace(label,
**fields)``) narrate the model: task launched, signal delivered, pages
swapped, ...  :meth:`TraceLog.digest` pins both;
:meth:`TraceLog.science_digest` pins the domain records alone, so an
engine change that fires fewer no-op events keeps it.  The experiment
harness renders the Figure 1 style execution schedules from these
records, and tests assert on them.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    label: str
    fields: Dict[str, Any] = field(default_factory=dict)
    #: True for the engine's fired-event records
    engine: bool = False

    def matches(self, label_prefix: str, **field_filters: Any) -> bool:
        """True when the label starts with ``label_prefix`` and every
        given field equals the filter value."""
        if not self.label.startswith(label_prefix):
            return False
        for key, expected in field_filters.items():
            if self.fields.get(key) != expected:
                return False
        return True

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:10.3f}] {self.label}" + (f" {extra}" if extra else "")


class TraceLog:
    """Append-only list of :class:`TraceRecord` with query helpers.

    The log can be disabled (the default for large runs) in which case
    nothing is stored; subscribers still fire, so live metric
    collectors work even with the log off.  With the log off and no
    subscriber, recording builds no record at all.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        self.enabled = enabled
        # A bounded deque evicts the oldest record in O(1) per append;
        # the list it replaced paid an O(capacity) front-deletion for
        # every record once full.
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._subscribers: List[Callable[[TraceRecord], None]] = []

    @property
    def capacity(self) -> Optional[int]:
        """Maximum records retained (``None`` = unbounded)."""
        return self._records.maxlen

    @capacity.setter
    def capacity(self, capacity: Optional[int]) -> None:
        """Rebound the log.  The deque is rebuilt with the new
        ``maxlen``, keeping the newest records that still fit."""
        if capacity == self._records.maxlen:
            return
        self._records = deque(self._records, maxlen=capacity)

    @property
    def observed(self) -> bool:
        """True when a record would be stored or reach a subscriber."""
        return self.enabled or bool(self._subscribers)

    def record(self, time: float, label: str, **fields: Any) -> None:
        """Append a domain record (if enabled) and notify subscribers."""
        if self.enabled or self._subscribers:
            self._append(TraceRecord(time, label, fields))

    def record_fired(self, time: float, label: str) -> None:
        """Append the engine's record of one fired event (if enabled)
        and notify subscribers."""
        if self.enabled or self._subscribers:
            self._append(TraceRecord(time, label, {}, True))

    def _append(self, rec: TraceRecord) -> None:
        if self.enabled:
            self._records.append(rec)
        for subscriber in self._subscribers:
            subscriber(rec)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every record, even when the
        stored log is disabled."""
        self._subscribers.append(callback)

    # Queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def find(self, label_prefix: str, **field_filters: Any) -> List[TraceRecord]:
        """All records matching the prefix and field filters, in order."""
        return [
            rec for rec in self._records if rec.matches(label_prefix, **field_filters)
        ]

    def first(self, label_prefix: str, **field_filters: Any) -> Optional[TraceRecord]:
        """First matching record or None."""
        for rec in self._records:
            if rec.matches(label_prefix, **field_filters):
                return rec
        return None

    def last(self, label_prefix: str, **field_filters: Any) -> Optional[TraceRecord]:
        """Last matching record or None."""
        for rec in reversed(self._records):
            if rec.matches(label_prefix, **field_filters):
                return rec
        return None

    def digest(self) -> str:
        """SHA-256 over every stored record (time, label, fields).

        ``repr(float)`` round-trips exactly in Python 3, so two logs
        digest equal iff their records are bit-identical -- the
        determinism tests compare whole runs through this one value.
        """
        return _digest(self._records)

    def science_digest(self) -> str:
        """:meth:`digest` over the domain records alone.

        Engine records say which events fired, not what the model did;
        leaving them out lets two runs that differ only in no-op events
        (whose callbacks change no state) digest equal.
        """
        return _digest(rec for rec in self._records if not rec.engine)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable dump of the last ``limit`` records."""
        if limit is None or limit >= len(self._records):
            records: Iterator[TraceRecord] = iter(self._records)
        else:
            records = islice(self._records, len(self._records) - limit, None)
        return "\n".join(str(rec) for rec in records)


def _digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over ``records`` (time, label, fields), in order."""
    h = hashlib.sha256()
    for rec in records:
        # Separator bytes between every component: without them
        # distinct records could concatenate to the same byte
        # stream (e.g. time '1.0' + label '5x' vs '1.05' + 'x').
        h.update(repr(rec.time).encode("utf-8"))
        h.update(b"\x1f")
        h.update(rec.label.encode("utf-8"))
        for key in sorted(rec.fields):
            h.update(b"\x1f")
            h.update(key.encode("utf-8"))
            h.update(b"\x1e")
            h.update(repr(rec.fields[key]).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
