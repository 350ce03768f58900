"""Scheduled-event bookkeeping for the simulation kernel.

An :class:`EventHandle` is returned by
:meth:`repro.sim.engine.Simulation.schedule` and lets the caller cancel
the event, move it with :meth:`~repro.sim.engine.Simulation.reschedule`,
or ask whether it already fired.  The engine's heap orders entries by
``(time, seq)``: time first, then FIFO among events scheduled for the
same instant.

A handle's ``(time, seq)`` is its *desired* firing key; the engine
tracks separately which heap entry currently represents the handle
(``_entry``), so a reschedule to a later time can leave the existing
entry in place and recycle it when it surfaces instead of paying a
cancel-plus-push per move.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Tuple


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class EventHandle:
    """A cancellable reference to one scheduled callback.

    Instances are created by the engine; user code only cancels them,
    reschedules them through the owning simulation, or inspects state.
    """

    __slots__ = ("time", "seq", "callback", "args", "label", "state",
                 "_on_cancel", "_entry")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        label: str = "",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label or getattr(callback, "__name__", "event")
        self.state = EventState.PENDING
        #: engine bookkeeping hook; lets the owning Simulation keep its
        #: dead-entry counter exact without scanning the heap
        self._on_cancel: Any = None
        #: the (time, seq) key of the heap entry currently representing
        #: this handle; diverges from (self.time, self.seq) after a
        #: deferred reschedule, None once fired/extracted
        self._entry: Optional[Tuple[float, int]] = (time, seq)

    # State queries ------------------------------------------------------

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        return self.state is EventState.PENDING

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` succeeded."""
        return self.state is EventState.CANCELLED

    @property
    def fired(self) -> bool:
        """True once the callback ran."""
        return self.state is EventState.FIRED

    def cancel(self) -> bool:
        """Cancel the event if it has not fired yet.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already fired or was already cancelled.
        Cancellation is lazy: the handle's entry stays in the engine's
        heap and is discarded when popped.
        """
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            if self._on_cancel is not None:
                self._on_cancel(self)
            return True
        return False

    def _mark_fired(self) -> None:
        self.state = EventState.FIRED
        self._entry = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EventHandle(t={self.time:.6f}, seq={self.seq}, "
            f"label={self.label!r}, state={self.state.value})"
        )
