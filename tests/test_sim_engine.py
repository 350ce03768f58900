"""The discrete-event kernel: ordering, cancellation, determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingInPastError, SimulationError
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulation()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_zero_delay_runs_after_pending_same_instant(self):
        sim = Simulation()
        fired = []
        sim.schedule(0.0, fired.append, "first")
        sim.call_soon(fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SchedulingInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulation()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingInPastError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_chain(self):
        sim = Simulation()
        fired = []

        def level_one():
            fired.append(("one", sim.now))
            sim.schedule(1.0, level_two)

        def level_two():
            fired.append(("two", sim.now))

        sim.schedule(1.0, level_one)
        sim.run()
        assert fired == [("one", 1.0), ("two", 2.0)]


class TestCancellation:
    def test_cancel_prevents_firing(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_returns_false(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert handle.fired
        assert not handle.cancel()

    def test_double_cancel(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulation()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.pending


class TestCancellationCounter:
    """pending_events is a counter now; it must stay exact under heavy
    cancellation, compaction, and mixed pop/cancel interleavings."""

    def test_heavy_cancellation_count_exact(self):
        sim = Simulation()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for i, handle in enumerate(handles):
            if i % 3:
                handle.cancel()
        expected = sum(1 for i in range(500) if not i % 3)
        assert sim.pending_events == expected
        fired = 0
        while sim.step():
            fired += 1
        assert fired == expected
        assert sim.pending_events == 0

    def test_compaction_triggers_and_preserves_order(self):
        sim = Simulation()
        fired = []
        keep = []
        for i in range(200):
            handle = sim.schedule(float(200 - i), fired.append, 200 - i)
            if i % 2:
                keep.append(200 - i)
            else:
                handle.cancel()
        assert sim.compactions >= 1
        # Compaction shed dead weight: the raw heap holds the live
        # events plus only the cancellations since the last rebuild.
        assert sim.pending_events == len(keep)
        assert sim.heap_size < 200
        sim.run()
        assert fired == sorted(keep)

    def test_no_compaction_below_minimum_heap(self):
        sim = Simulation()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.compactions == 0
        assert sim.pending_events == 0
        assert sim.heap_size == 10  # lazily discarded on pop
        sim.run()
        assert sim.heap_size == 0

    def test_counter_exact_after_peek_discards(self):
        sim = Simulation()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        # _peek_time pops the cancelled head; the counter must follow.
        sim.run(until=0.5)
        assert sim.pending_events == 1
        assert not sim.idle

    def test_cancel_during_callback_counted(self):
        sim = Simulation()
        victims = [sim.schedule(5.0, lambda: None) for _ in range(100)]

        def cancel_all():
            for victim in victims:
                victim.cancel()

        sim.schedule(1.0, cancel_all)
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_fired == 1

    def test_pending_events_is_constant_time_shape(self):
        # Not a timing assert: just pin that the property no longer
        # depends on scanning (heap_size >> pending_events is fine).
        sim = Simulation()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(63)]
        for handle in handles[1:]:
            handle.cancel()
        assert sim.heap_size == 63
        assert sim.pending_events == 1


class TestEngineInvariants:
    """The clock/ordering contracts every model layer relies on."""

    def test_now_monotonic_across_chained_events(self):
        sim = Simulation(seed=3)
        times = []
        rng = sim.rng.stream("t")

        def tick(depth):
            times.append(sim.now)
            if depth < 200:
                sim.schedule(rng.uniform(0.0, 2.0), tick, depth + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert times == sorted(times)
        assert len(times) == 201

    def test_same_instant_fifo_includes_mid_run_schedules(self):
        sim = Simulation()
        fired = []

        def first():
            fired.append("first")
            # Scheduled *during* the instant: still runs at t=1, after
            # everything already queued for t=1.
            sim.schedule(0.0, fired.append, "late")

        sim.schedule(1.0, first)
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second", "late"]
        assert sim.now == 1.0

    def test_run_until_advances_clock_with_empty_heap(self):
        sim = Simulation()
        sim.run(until=7.5)
        assert sim.now == 7.5
        assert sim.events_fired == 0

    def test_run_until_exact_boundary_fires_event_at_until(self):
        sim = Simulation()
        fired = []
        sim.schedule(2.0, fired.append, "at-boundary")
        sim.schedule(2.0000001, fired.append, "past")
        sim.run(until=2.0)
        assert fired == ["at-boundary"]
        assert sim.now == 2.0

    def test_repeated_run_until_is_a_paced_replay(self):
        sim = Simulation()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, fired.append, t)
        for checkpoint in (0.5, 1.5, 2.5, 5.0):
            sim.run(until=checkpoint)
            assert sim.now == checkpoint
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_stop_mid_run_keeps_pending_and_resumes(self):
        sim = Simulation()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "after")
        sim.run()
        assert fired == ["stop"]
        assert sim.pending_events == 1
        assert sim.now == 1.0
        sim.run()
        assert fired == ["stop", "after"]

    def test_stop_does_not_advance_clock_to_until(self):
        sim = Simulation()
        sim.schedule(1.0, sim.stop)
        sim.run(until=100.0)
        assert sim.now == 1.0


class TestRunControl:
    def test_run_until(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_max_events(self):
        sim = Simulation()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_from_callback(self):
        sim = Simulation()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "never-before-resume")
        sim.run()
        assert fired == ["stop"]

    def test_run_not_reentrant(self):
        sim = Simulation()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_step_returns_false_when_idle(self):
        sim = Simulation()
        assert not sim.step()
        assert sim.idle

    def test_events_fired_counter(self):
        sim = Simulation()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 4


class TestStandInEvents:
    """``note_fired`` and ``is_latest``: one callback standing for
    several events due back to back, observed as those events."""

    def test_note_fired_counts_records_and_profiles(self):
        sim = Simulation(trace=True, profile=True)
        sim.schedule(2.0, lambda: (sim.note_fired("b"), sim.note_fired("c")),
                     label="a")
        sim.run()
        assert sim.events_fired == 3
        assert [(rec.time, rec.label, rec.engine)
                for rec in sim.trace_log] == [
            (2.0, "a", True), (2.0, "b", True), (2.0, "c", True)]
        assert sim.label_counts == {"a": 1, "b": 1, "c": 1}

    def test_a_stand_in_observes_like_the_events_it_replaces(self):
        def observed(stand_in):
            sim = Simulation(trace=True, profile=True)
            if stand_in:
                sim.schedule(1.0, lambda: sim.note_fired("y"), label="x")
            else:
                sim.schedule(1.0, lambda: None, label="x")
                sim.schedule(1.0, lambda: None, label="y")
            sim.run()
            return sim.trace_log.digest(), sim.events_fired, sim.label_counts

        assert observed(True) == observed(False)

    def test_note_fired_reaches_subscribers_with_the_log_off(self):
        sim = Simulation()
        seen = []
        sim.trace_log.subscribe(seen.append)
        sim.note_fired("quiet")
        assert [(rec.label, rec.engine) for rec in seen] == [("quiet", True)]
        assert len(sim.trace_log) == 0
        assert sim.label_counts == {}  # not profiling

    @pytest.mark.parametrize("trace,subscribed,profile", [
        (True, False, True), (False, True, False), (False, False, True),
        (False, False, False)])
    def test_note_fired_many_observes_like_note_fired(
            self, trace, subscribed, profile):
        def observed(many):
            sim = Simulation(trace=trace, profile=profile)
            seen = []
            if subscribed:
                sim.trace_log.subscribe(seen.append)
            labels = ["b", "c", "b"]
            if many:
                fire = lambda: sim.note_fired_many(3, iter(labels))
            else:
                fire = lambda: [sim.note_fired(label) for label in labels]
            sim.schedule(2.0, fire, label="a")
            sim.run()
            return (sim.events_fired, list(sim.trace_log), seen,
                    sim.label_counts)

        assert observed(True) == observed(False)
        assert observed(True)[0] == 4

    def test_note_fired_many_leaves_labels_alone_when_unobserved(self):
        sim = Simulation()
        consumed = []

        def labels():
            consumed.append(True)
            yield "x"

        sim.note_fired_many(1, labels())
        assert sim.events_fired == 1
        assert consumed == []

    def test_trace_log_observed(self):
        log = TraceLog(enabled=False)
        assert not log.observed
        log.enabled = True
        assert log.observed
        log.enabled = False
        log.subscribe(lambda rec: None)
        assert log.observed

    def test_is_latest_until_anything_is_sequenced(self):
        sim = Simulation()
        other = sim.schedule(9.0, lambda: None)
        handle = sim.schedule_at(5.0, lambda: None)
        assert sim.is_latest(handle)
        assert not sim.is_latest(other)
        # a same-time reschedule sequences nothing
        sim.reschedule(other, 9.0)
        assert sim.is_latest(handle)
        sim.reschedule(other, 7.0)
        assert not sim.is_latest(handle)
        later = sim.schedule(1.0, lambda: None)
        assert sim.is_latest(later)
        sim.schedule(1.0, lambda: None)
        assert not sim.is_latest(later)

    def test_is_latest_is_false_once_not_pending(self):
        sim = Simulation()
        cancelled = sim.schedule(1.0, lambda: None)
        cancelled.cancel()
        assert not sim.is_latest(cancelled)
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not sim.is_latest(fired)


class TestDeterminism:
    def test_engine_trace_records_labels(self):
        sim = Simulation(trace=True)
        sim.schedule(1.0, lambda: None, label="hello")
        sim.run()
        assert sim.trace_log.first("hello") is not None

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulation()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestReschedule:
    """reschedule(): correctness of the deferred-entry reuse paths."""

    def test_defer_fires_at_new_time(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.reschedule(handle, 5.0)
        sim.run()
        assert fired == [5.0]
        assert handle.fired

    def test_advance_fires_at_new_time(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.reschedule(handle, 1.0)
        sim.run()
        assert fired == [1.0]

    def test_same_time_is_a_noop_reuse(self):
        sim = Simulation()
        handle = sim.schedule(2.0, lambda: None)
        before = sim.heap_size
        assert sim.reschedule(handle, 2.0) is handle
        assert sim.heap_size == before
        assert sim.reschedule_reuses == 1

    def test_defer_reuses_heap_entry(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        before = sim.heap_size
        sim.reschedule(handle, 9.0)
        assert sim.heap_size == before  # recycled lazily, no new push
        assert sim.reschedule_reuses == 1
        assert sim.pending_events == 1

    def test_repeated_defers_then_advance(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.reschedule(handle, 4.0)
        sim.reschedule(handle, 8.0)
        sim.reschedule(handle, 2.0)
        sim.run()
        assert fired == [2.0]
        assert sim.pending_events == 0

    def test_cancel_after_defer(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.reschedule(handle, 3.0)
        assert handle.cancel()
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_reschedule_into_past_rejected(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(SchedulingInPastError):
            sim.reschedule(handle, 1.5)

    def test_reschedule_fired_handle_rejected(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 2.0)

    def test_fifo_order_is_as_if_freshly_scheduled(self):
        # A reschedule behaves like cancel+schedule for same-instant
        # ordering: the moved event fires after events already queued
        # at the target time.
        sim = Simulation()
        fired = []
        moved = sim.schedule(1.0, fired.append, "moved")
        sim.schedule(3.0, fired.append, "incumbent")
        sim.reschedule(moved, 3.0)
        sim.run()
        assert fired == ["incumbent", "moved"]

    def test_pending_events_exact_under_mixed_traffic(self):
        sim = Simulation()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for i, handle in enumerate(handles):
            if i % 3 == 0:
                sim.reschedule(handle, float(i + 50))
            elif i % 3 == 1:
                sim.reschedule(handle, max(float(i) * 0.5, 0.0))
        for handle in handles[::5]:
            handle.cancel()
        alive = sum(1 for h in handles if h.pending)
        assert sim.pending_events == alive
        fired = 0
        while sim.step():
            fired += 1
        assert fired == alive
        assert sim.pending_events == 0

    def test_compaction_preserves_deferred_entries(self):
        sim = Simulation()
        fired = []
        keepers = []
        for i in range(200):
            handle = sim.schedule(float(i + 1), fired.append, i)
            if i % 2 == 0:
                handle.cancel()
            else:
                sim.reschedule(handle, float(i + 1) + 500.0)
                keepers.append(i)
        # enough cancellations to force at least one compaction
        assert sim.compactions >= 1
        sim.run()
        assert fired == keepers
        assert sim.pending_events == 0

    def test_peek_time_resolves_deferred_head(self):
        sim = Simulation()
        fired = []
        head = sim.schedule(1.0, fired.append, "late")
        sim.schedule(2.0, fired.append, "early")
        sim.reschedule(head, 10.0)
        # run(until) must not step past `until` chasing the stale head.
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_compaction_during_earlier_move_keeps_counter_exact(self):
        # Regression: an earlier-move reschedule bumps the dead-entry
        # counter and may trigger compaction *mid-reschedule*; the
        # handle's new entry must already be its representative by
        # then, or compaction resurrects the orphan as a duplicate and
        # the dead counter goes negative once both surface.
        sim = Simulation()
        keepers = [sim.schedule(float(i + 10), lambda: None) for i in range(100)]
        movers = [sim.schedule(1000.0 + i, lambda: None) for i in range(120)]
        for i, handle in enumerate(movers):
            # every move is earlier: each leaves one orphan entry
            sim.reschedule(handle, 500.0 - i)
        alive = len(keepers) + len(movers)
        assert sim.pending_events == alive
        fired = 0
        while sim.step():
            fired += 1
        assert fired == alive
        assert sim.pending_events == 0
        assert sim.heap_size == 0


class TestRunUntilWithMaxEvents:
    """run(until=..., max_events=...) interplay: the clock must only
    jump to ``until`` when nothing is left pending before it."""

    def test_max_events_halt_does_not_strand_pending_events(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=10.0, max_events=1)
        assert fired == ["a"]
        # b is still pending at t=2 < until; jumping to 10 would
        # strand it in the past.
        assert sim.now == 1.0
        sim.run(until=10.0)
        assert fired == ["a", "b"]
        assert sim.now == 10.0

    def test_stop_halt_does_not_strand_pending_events(self):
        sim = Simulation()
        fired = []

        def first():
            fired.append("a")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=10.0)
        assert fired == ["a"]
        assert sim.now == 1.0
        sim.run()
        assert fired == ["a", "b"]

    def test_until_alone_still_paces_the_clock(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0
        sim.run(until=9.0)  # empty heap: clock still advances
        assert sim.now == 9.0

    def test_same_time_reschedule_keeps_fifo_position(self):
        # The documented no-op: a reschedule to the event's *current*
        # time keeps its original position among same-instant peers
        # (unlike a real move, which re-sequences behind them).
        sim = Simulation()
        fired = []
        sim.schedule(2.0, fired.append, "a")
        pinned = sim.schedule(2.0, fired.append, "b")
        sim.schedule(2.0, fired.append, "c")
        sim.reschedule(pinned, 2.0)
        sim.run()
        assert fired == ["a", "b", "c"]
