"""The multi-call progress chain, kept as the oracle for
``test_progress_differential``.

A busy TaskTracker reports every live attempt's progress on every
heartbeat.  That value used to be evaluated through one call per
layer: ``TaskAttempt.progress`` -> ``ChildJVM.progress`` ->
``WorkEngine.progress`` -> ``WorkItem.fraction_done`` ->
``Claim.fraction_done`` -> ``Claim.remaining`` ->
``RateResource._virtual_now`` -> ``rate_per_claim``.
:meth:`repro.osmodel.work.WorkEngine.progress` now evaluates an
active claim's share inline.  Each function below is one link of the
old chain, copied as it was, so the differential test can require the
new value to equal this one bit for bit.
"""

from __future__ import annotations

from repro.hadoop.states import AttemptState
from repro.osmodel.work import RateWorkItem


def legacy_attempt_progress(attempt) -> float:
    """``TaskAttempt.progress`` (-> ``ChildJVM.progress``)."""
    if attempt.state is AttemptState.SUCCEEDED:
        return 1.0
    if attempt.jvm is None:
        return 0.0
    if attempt.state.terminal:
        return attempt._final_progress
    return legacy_engine_progress(attempt.jvm.engine)


def legacy_engine_progress(engine) -> float:
    """``WorkEngine.progress``."""
    if engine._aborted_progress is not None:
        return engine._aborted_progress
    total = engine.plan.total_weight
    if total <= 0:
        if not engine.plan.items:
            return 1.0
        return engine.index / len(engine.plan.items)
    done = engine._completed_weight
    item = engine.current_item
    if item is not None and item.started and not item.finished and item.weight > 0:
        done += item.weight * legacy_item_fraction(item, engine)
    return max(0.0, min(1.0, done / total))


def legacy_item_fraction(item, engine) -> float:
    """``WorkItem.fraction_done``; a rate-backed item's goes through
    its claim."""
    if not isinstance(item, RateWorkItem):
        return item.fraction_done(engine)
    if item.claim is None:
        return 1.0 if item.finished else 0.0
    return legacy_claim_fraction(item.claim)


def legacy_claim_fraction(claim) -> float:
    """``Claim.fraction_done``."""
    if claim.initial <= 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - legacy_claim_remaining(claim) / claim.initial))


def legacy_claim_remaining(claim) -> float:
    """``Claim.remaining``."""
    if claim.active:
        return max(0.0, claim._vfinish - legacy_virtual_now(claim.resource))
    return claim._remaining


def legacy_virtual_now(resource) -> float:
    """``RateResource._virtual_now``."""
    elapsed = resource.sim.now - resource._vtime_at
    if elapsed > 0 and resource._claims:
        return resource._vtime + resource.rate_per_claim() * elapsed
    return resource._vtime
