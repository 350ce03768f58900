"""Swap-aware suspend admission control (Section III-A, actively managed).

The paper's suspend primitive is only safe under the constraint that
"the aggregate memory occupation of the tasks running and suspended on
a machine" fits in RAM + swap.  Historically this repository modelled
the constraint passively -- a
:class:`~repro.errors.SwapExhaustedError` when the swap device
overflowed -- and the suspend primitive's static pre-check compared the
victim against the swap *capacity*, ignoring how much of it (and of
RAM) was actually occupied.

This module manages the constraint: before a scheduler issues SIGTSTP
the :class:`SuspendAdmissionGate` reads the victim node's live
:class:`~repro.osmodel.vmm.MemoryHeadroom` -- the same snapshot every
heartbeat now carries -- and admits the suspension only if, after the
victim's resident set is parked and the configured incoming demand
lands, RAM + swap can still absorb everything.  Denied suspensions
walk a configurable fallback ladder (suspend -> wait -> kill): a
transient denial waits for pressure to clear (the scheduler simply
retries at a later heartbeat), while a victim that could *never* be
admitted on its node may be killed instead if the ladder says so.

The gate is deliberately silent on admission (no trace events, no RNG)
so that gated scheduling with abundant swap is event-for-event
identical to ungated scheduling -- the differential test in
``tests/test_admission.py`` pins exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hadoop.states import AttemptState, TipState
from repro.hadoop.task import TaskInProgress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.cluster import HadoopCluster
    from repro.preemption.base import PreemptionPrimitive

#: ladder steps a denied suspension may fall back to
FALLBACK_STEPS = ("wait", "kill")


@dataclass(frozen=True)
class AdmissionConfig:
    """Policy knobs of the suspend-admission gate.

    Attributes
    ----------
    reserve_bytes:
        Memory the node must still be able to absorb *after* the
        victim is suspended -- the expected demand of the incoming
        high-priority task (its JVM plus its footprint).  The gate
        admits a suspension only when free RAM + droppable cache +
        free swap cover the victim's pageable bytes and this reserve.
    fallback:
        The ladder walked when a suspension is denied, in order.
        ``"wait"`` applies to *transient* denials (memory pressure can
        clear; the scheduler retries later) and ``"kill"`` to any
        denial; the first applicable step wins and an exhausted ladder
        defaults to waiting.
    suspended_budget_bytes:
        Hard cap on the *total* suspended bytes (resident + swapped,
        including in-flight suspensions) a node may hold.  The
        instantaneous supply check above only guarantees the next
        incoming task fits; after admission the node keeps launching
        tasks as slots free, so the standing invariant that keeps a
        workload OOM-free at every scale is
        ``suspended_total <= RAM + swap - worst-case running set``.
        Callers that know their workload's worst-case running set set
        this to that difference; ``None`` disables the check.
    """

    reserve_bytes: int = 0
    fallback: Tuple[str, ...] = ("wait",)
    suspended_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.reserve_bytes < 0:
            raise ConfigurationError("reserve_bytes may not be negative")
        if not self.fallback:
            raise ConfigurationError("fallback ladder may not be empty")
        for step in self.fallback:
            if step not in FALLBACK_STEPS:
                raise ConfigurationError(
                    f"unknown fallback step {step!r}; "
                    f"known: {', '.join(FALLBACK_STEPS)}"
                )
        if (
            self.suspended_budget_bytes is not None
            and self.suspended_budget_bytes < 0
        ):
            raise ConfigurationError("suspended_budget_bytes out of range")


@dataclass(slots=True)
class AdmissionDecision:
    """Outcome of one gate evaluation."""

    admitted: bool
    #: action the caller should take: "suspend", "wait" or "kill"
    action: str
    reason: str = ""
    #: True when the victim could never be admitted on this node
    #: (resident set exceeds the whole swap device), as opposed to a
    #: transient memory-pressure denial
    permanent: bool = False


@dataclass(slots=True)
class AdmissionStats:
    """Counters the memscale study reports."""

    admitted: int = 0
    denied: int = 0
    fallback_waits: int = 0
    fallback_kills: int = 0
    deny_reasons: dict = field(default_factory=dict)


class SuspendAdmissionGate:
    """Decides, per victim, whether SIGTSTP is memory-safe right now."""

    def __init__(self, cluster: "HadoopCluster", config: Optional[AdmissionConfig] = None):
        self.cluster = cluster
        self.config = config or AdmissionConfig()
        self.stats = AdmissionStats()

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, tip: TaskInProgress) -> AdmissionDecision:
        """Admit or deny suspending ``tip``'s live attempt.

        Denials carry the first applicable fallback-ladder action.
        The arithmetic: after suspension the victim's resident pages
        join the node's stopped pool; the incoming task then demands
        ``reserve_bytes``.  That demand is served from free RAM,
        droppable page cache, and RAM freed by paging stopped tasks
        out -- the latter bounded by free swap.  Suspensions whose
        stop directive is still in flight (MUST_SUSPEND tips on the
        same node) are counted as already stopped, so back-to-back
        admissions within one heartbeat cannot jointly oversubscribe
        a node that each alone would fit.
        """
        tracker = self.cluster.trackers.get(tip.tracker or "")
        if tracker is None:
            return self._deny("no-tracker", "no live tracker", permanent=True)
        attempt = tracker.attempts.get(tip.active_attempt_id or "")
        if attempt is None:
            return self._deny("no-attempt", "no live attempt", permanent=True)

        cap = tracker.config.max_suspended_per_tracker
        # Same count semantics as the primitive's static check (landed
        # stops only): in-flight suspensions are accounted by *bytes*
        # below, where they actually matter.
        if len(tracker.suspended_attempts()) >= cap:
            return self._deny(
                "count-cap",
                f"{tracker.host} already holds "
                f"{len(tracker.suspended_attempts())} suspended tasks",
            )

        head = tracker.kernel.memory_headroom()
        victim_bytes = attempt.resident_bytes()
        if victim_bytes > tracker.kernel.vmm.swap.capacity:
            # Not even an empty swap device could park this image.
            return self._deny(
                "victim-exceeds-swap",
                f"victim resident {victim_bytes} exceeds swap capacity",
                permanent=True,
            )
        pending_bytes = self._pending_suspend_bytes(
            tracker, exclude=attempt.attempt_id
        )
        if self.config.suspended_budget_bytes is not None:
            # Standing invariant: total suspended bytes stay within
            # what RAM + swap can hold *alongside the worst-case
            # running set* -- the future launches the supply check
            # below cannot see.
            suspended_after = (
                head.stopped_resident
                + head.stopped_swapped
                + pending_bytes
                + victim_bytes
            )
            if suspended_after > self.config.suspended_budget_bytes:
                return self._deny(
                    "budget",
                    f"suspended total {suspended_after} would exceed the "
                    f"node budget {self.config.suspended_budget_bytes}",
                )
        # Pageable supply: stopped pages (including the victim's and
        # any in-flight suspensions') can leave RAM for swap, capped by
        # the swap space actually free.
        pageable = min(
            head.stopped_resident + pending_bytes + victim_bytes, head.free_swap
        )
        supply = head.free_ram + head.evictable_cache + pageable
        if self.config.reserve_bytes > supply:
            return self._deny(
                "no-headroom",
                f"reserve {self.config.reserve_bytes} exceeds supply {supply} "
                f"(free_ram={head.free_ram} cache={head.evictable_cache} "
                f"pageable={pageable})",
            )
        self.stats.admitted += 1
        return AdmissionDecision(admitted=True, action="suspend")

    def _pending_suspend_bytes(self, tracker, exclude: str) -> int:
        """Resident bytes of attempts whose suspension is in flight:
        the tip is MUST_SUSPEND but the stop has not landed yet.
        Counting them as already stopped keeps back-to-back admissions
        within one heartbeat from jointly oversubscribing a node each
        alone would fit."""
        total = 0
        jobs = self.cluster.jobtracker
        for attempt in tracker._reportable.values():
            if attempt.attempt_id == exclude:
                continue
            if attempt.state not in (AttemptState.RUNNING, AttemptState.SUSPENDING):
                continue
            tip = jobs._tips.get(attempt.tip_id)
            if tip is None or tip.state is not TipState.MUST_SUSPEND:
                continue
            if tip.active_attempt_id != attempt.attempt_id:
                continue
            total += attempt.resident_bytes()
        return total

    def _deny(
        self, key: str, reason: str, permanent: bool = False
    ) -> AdmissionDecision:
        self.stats.denied += 1
        self.stats.deny_reasons[key] = self.stats.deny_reasons.get(key, 0) + 1
        action = "wait"
        for step in self.config.fallback:
            if step == "wait" and not permanent:
                action = "wait"
                break
            if step == "kill":
                action = "kill"
                break
        return AdmissionDecision(
            admitted=False, action=action, reason=reason, permanent=permanent
        )

    # -- the gate-aware preempt entry point ---------------------------------

    def preempt(self, primitive: "PreemptionPrimitive", tip: TaskInProgress) -> str:
        """Preempt ``tip`` through the gate; returns the action taken
        ("suspend", "wait" or "kill").

        Admission runs the primitive untouched -- same call, same
        order, no extra events -- so abundant-headroom behaviour is
        identical to ungated scheduling.  Denial walks the fallback
        ladder: "wait" leaves the victim running (the scheduler
        retries at a later heartbeat), "kill" falls back to the
        pre-existing kill directive.  The gate never traces: a "wait"
        denial must leave the simulation exactly as an ungated
        NotPreemptibleError would (the differential tests compare
        TraceLog digests); denials are observable through
        :attr:`stats` instead.
        """
        decision = self.evaluate(tip)
        if decision.admitted:
            primitive.preempt(tip)
            return "suspend"
        if decision.action == "kill":
            self.stats.fallback_kills += 1
            if tip.state is TipState.RUNNING:
                self.cluster.jobtracker.kill_task(tip.tip_id)
            return "kill"
        self.stats.fallback_waits += 1
        return "wait"


def admit_and_preempt(
    gate: Optional[SuspendAdmissionGate],
    primitive: "PreemptionPrimitive",
    tip: TaskInProgress,
) -> str:
    """Shared ladder walk for schedulers and harnesses.

    Without a gate (or for non-suspend primitives) this is exactly
    ``primitive.preempt(tip)``; with one, suspend requests pass
    through :meth:`SuspendAdmissionGate.preempt`.  Returns the action
    taken so callers can count outcomes; raises
    :class:`~repro.errors.NotPreemptibleError` exactly where the bare
    primitive would.
    """
    from repro.preemption.base import PrimitiveName

    if gate is None or primitive.name is not PrimitiveName.SUSPEND:
        primitive.preempt(tip)
        return primitive.name.value
    return gate.preempt(primitive, tip)


__all__ = [
    "AdmissionConfig",
    "AdmissionDecision",
    "AdmissionStats",
    "SuspendAdmissionGate",
    "admit_and_preempt",
]
