"""POSIX signal semantics for simulated processes.

The paper's preemption primitive is built on three signals:

* ``SIGTSTP`` -- polite stop.  Unlike ``SIGSTOP`` it can be caught, so
  a task may run a handler that tidies external state (close network
  connections, flush pipes) before stopping.  The model charges the
  configured handler latency between delivery and the actual stop.
* ``SIGCONT`` -- resume a stopped process.
* ``SIGKILL`` -- immediate destruction; cannot be caught.

``SIGSTOP`` (uncatchable stop) and ``SIGTERM`` (catchable terminate)
are modelled as well for completeness: Hadoop's kill path uses
``SIGKILL`` after a ``SIGTERM`` grace period.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import InvalidSignalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.osmodel.process import OSProcess


class Signal(enum.Enum):
    """The subset of POSIX signals the model understands."""

    SIGTSTP = "SIGTSTP"
    SIGSTOP = "SIGSTOP"
    SIGCONT = "SIGCONT"
    SIGTERM = "SIGTERM"
    SIGKILL = "SIGKILL"

    @property
    def catchable(self) -> bool:
        """SIGKILL and SIGSTOP cannot be caught, blocked or ignored."""
        return self not in (Signal.SIGKILL, Signal.SIGSTOP)

    @property
    def stops(self) -> bool:
        """True for signals whose default disposition stops the process."""
        return self in (Signal.SIGTSTP, Signal.SIGSTOP)

    @property
    def terminates(self) -> bool:
        """True for signals whose default disposition kills the process."""
        return self in (Signal.SIGTERM, Signal.SIGKILL)


#: Handler type: called with the process when the signal is delivered.
SignalHandler = Callable[["OSProcess"], None]


class SignalDispositions:
    """Per-process table of installed handlers.

    Only catchable signals may have handlers; installing one for
    SIGKILL/SIGSTOP raises
    :class:`~repro.errors.InvalidSignalError`, matching ``sigaction``'s
    ``EINVAL``.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Signal, SignalHandler] = {}

    def install(self, sig: Signal, handler: SignalHandler) -> None:
        """Install ``handler`` for ``sig``."""
        if not sig.catchable:
            raise InvalidSignalError(f"{sig.value} cannot be caught")
        self._handlers[sig] = handler

    def handler_for(self, sig: Signal) -> Optional[SignalHandler]:
        """The installed handler, or None for default disposition."""
        return self._handlers.get(sig)

    def __contains__(self, sig: Signal) -> bool:
        return sig in self._handlers
