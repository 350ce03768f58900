"""Task state machines.

The paper's contribution adds three states to the JobTracker's
task-state machine, mirroring how the ``kill`` primitive is plumbed:

    "we introduce ... new identifiers for task states in the
    JobTracker.  As soon as the JobTracker receives the command to
    suspend a task ... that task is marked as being in a MUST_SUSPEND
    state.  At the following heartbeat from the involved TaskTracker,
    the JobTracker piggybacks the command to suspend the task.  The
    following heartbeat notifies the JobTracker whether the task has
    been suspended -- which triggers entering the SUSPENDED state --
    or whether it completed in the meanwhile.  Analogous steps are
    taken to resume tasks, exchanging appropriate messages and
    handling the MUST_RESUME state, returning the state to RUNNING."

:class:`TipState` is the JobTracker-side view of a task-in-progress;
:class:`AttemptState` is the TaskTracker-side view of one attempt.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.errors import TaskStateError


class TipState(enum.Enum):
    """JobTracker-side state of a task-in-progress."""

    UNASSIGNED = "UNASSIGNED"
    RUNNING = "RUNNING"
    MUST_SUSPEND = "MUST_SUSPEND"
    SUSPENDED = "SUSPENDED"
    MUST_RESUME = "MUST_RESUME"
    MUST_KILL = "MUST_KILL"
    SUCCEEDED = "SUCCEEDED"
    KILLED = "KILLED"
    FAILED = "FAILED"

    # The properties test identity against the module-level aliases
    # below: a member lookup on an Enum class, and hashing a member,
    # run Python-level enum code, and heartbeats ask these per status.

    @property
    def terminal(self) -> bool:
        """True for states a task never leaves."""
        return self is _TIP_SUCCEEDED or self is _TIP_KILLED or self is _TIP_FAILED

    @property
    def active(self) -> bool:
        """True while an attempt exists on some TaskTracker."""
        return not (
            self is _TIP_UNASSIGNED
            or self is _TIP_SUCCEEDED
            or self is _TIP_KILLED
            or self is _TIP_FAILED
        )


_TIP_UNASSIGNED = TipState.UNASSIGNED
_TIP_SUCCEEDED = TipState.SUCCEEDED
_TIP_KILLED = TipState.KILLED
_TIP_FAILED = TipState.FAILED


#: Legal TipState transitions; the JobTracker enforces these, and the
#: property-based tests fire random command sequences to verify no
#: illegal edge is ever taken.
TIP_TRANSITIONS: Dict[TipState, FrozenSet[TipState]] = {
    TipState.UNASSIGNED: frozenset(
        {
            TipState.RUNNING,
            TipState.KILLED,
            TipState.FAILED,
            # A requeued task (its primary's tracker died) whose live
            # speculative backup completed before the relaunch.
            TipState.SUCCEEDED,
        }
    ),
    TipState.RUNNING: frozenset(
        {
            TipState.MUST_SUSPEND,
            TipState.MUST_KILL,
            TipState.SUCCEEDED,
            TipState.KILLED,
            TipState.FAILED,
            TipState.UNASSIGNED,  # attempt lost (TT death) -> reschedule
        }
    ),
    TipState.MUST_SUSPEND: frozenset(
        {
            TipState.SUSPENDED,
            TipState.SUCCEEDED,  # completed in the meanwhile
            TipState.MUST_KILL,
            TipState.KILLED,
            TipState.FAILED,
            TipState.UNASSIGNED,  # tracker lost mid-directive
        }
    ),
    TipState.SUSPENDED: frozenset(
        {
            TipState.MUST_RESUME,
            TipState.MUST_KILL,
            TipState.KILLED,
            TipState.UNASSIGNED,  # non-local restart = delayed kill
            TipState.FAILED,
            TipState.SUCCEEDED,  # a speculative backup finished first
        }
    ),
    TipState.MUST_RESUME: frozenset(
        {
            TipState.RUNNING,
            TipState.MUST_KILL,
            TipState.KILLED,
            TipState.FAILED,
            TipState.UNASSIGNED,  # tracker lost mid-directive
            TipState.SUCCEEDED,  # a speculative backup finished first
        }
    ),
    TipState.MUST_KILL: frozenset(
        {
            TipState.KILLED,
            TipState.UNASSIGNED,
            TipState.SUCCEEDED,
            TipState.FAILED,  # task error raced the kill directive
        }
    ),
    # A completed map whose output lived on a lost TaskTracker must be
    # re-executed (its output is served from tracker-local disk).
    TipState.SUCCEEDED: frozenset({TipState.UNASSIGNED}),
    TipState.KILLED: frozenset({TipState.UNASSIGNED}),  # rescheduled from scratch
    TipState.FAILED: frozenset({TipState.UNASSIGNED}),
}


def check_tip_transition(old: TipState, new: TipState) -> None:
    """Raise :class:`~repro.errors.TaskStateError` on an illegal edge."""
    if new is old:
        return
    if new not in TIP_TRANSITIONS[old]:
        raise TaskStateError(f"illegal TIP transition {old.value} -> {new.value}")


class AttemptState(enum.Enum):
    """TaskTracker-side state of one task attempt."""

    STARTING = "STARTING"
    RUNNING = "RUNNING"
    SUSPENDING = "SUSPENDING"  # SIGTSTP sent, handler still draining
    SUSPENDED = "SUSPENDED"
    SUCCEEDED = "SUCCEEDED"
    KILLED = "KILLED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        """True once the attempt can never run again."""
        return self is _SUCCEEDED or self is _KILLED or self is _FAILED

    @property
    def holds_slot(self) -> bool:
        """True while the attempt occupies a TaskTracker slot.

        This is the crux of the suspend primitive: a SUSPENDED attempt
        keeps its process (and memory image) but *releases its slot*
        so the high-priority task can run.
        """
        return self is _RUNNING or self is _STARTING or self is _SUSPENDING


_STARTING = AttemptState.STARTING
_RUNNING = AttemptState.RUNNING
_SUSPENDING = AttemptState.SUSPENDING
_SUCCEEDED = AttemptState.SUCCEEDED
_KILLED = AttemptState.KILLED
_FAILED = AttemptState.FAILED
