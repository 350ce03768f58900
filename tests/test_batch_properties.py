"""Property suite for heartbeat dispatch (Hypothesis).

Three layers of invariants, each randomized over its whole input
space rather than pinned to a handful of seeds:

* **engine FIFO** -- for any script of schedule times, events fire
  in timestamp order with FIFO order *within* a timestamp pinned to
  insertion order;
* **cache coherence** -- stop a live replay cell at an arbitrary
  mid-flight instant: each job's cached remaining-work, schedulable
  and pending-aux views must equal a from-scratch recompute;
* **index exactness** -- for any small workload (seed, scenario,
  primitive, phase count), the standing job index, repaired from job
  notes, equals a from-scratch build after every heartbeat, and every
  walk a heartbeat skipped returns no action (the checks of
  ``tests/test_index_exactness.py``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _build_run
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.hadoop.job import JobState
from repro.hadoop.states import TipState
from repro.sim.engine import Simulation
from tests.test_index_exactness import checked_run

# -- engine FIFO ----------------------------------------------------------------

#: schedule-time scripts; a few distinct times are enough to produce
#: every same-instant adjacency pattern that matters
SCRIPT = st.lists(
    st.integers(min_value=0, max_value=3),
    min_size=1,
    max_size=24,
)


@given(script=SCRIPT, data=st.data())
def test_engine_fifo_within_timestamp_follows_insertion_order(script, data):
    """Permuting whole-script insertion order permutes same-instant
    fire order the same way: arrival order IS the processing order."""
    order = data.draw(st.permutations(range(len(script))))

    def fire_sequence(indices):
        sim = Simulation()
        fired = []
        for insertion in indices:
            sim.schedule_at(
                float(script[insertion]),
                lambda i=insertion: fired.append(i),
                label="script",
            )
        sim.run()
        return fired

    base = fire_sequence(range(len(script)))
    permuted = fire_sequence(order)
    # Within each timestamp the fired order equals the insertion
    # order -- so the permuted run's per-timestamp order is exactly
    # the permutation's order restricted to that timestamp.
    by_time = {}
    for insertion, time in enumerate(script):
        by_time.setdefault(time, set()).add(insertion)
    for members in by_time.values():
        assert [i for i in base if i in members] == sorted(members)
        assert [i for i in permuted if i in members] == [
            i for i in order if i in members
        ]


# -- cache coherence ------------------------------------------------------------


def _assert_job_coherent(job):
    # Cached aggregates == from-scratch recompute (identical floats:
    # the cache fills via the same summation order as this loop).
    remaining = 0.0
    for tip in job.tips:
        if tip.progress < 1.0:
            remaining += tip.full_seconds * (1.0 - tip.progress)
    assert job.remaining_work_seconds() == remaining
    expect_schedulable = (
        [tip for tip in job.tips if tip.state is TipState.UNASSIGNED]
        if job.state is JobState.RUNNING
        else []
    )
    assert list(job.schedulable_tips()) == expect_schedulable
    # pending_aux_tip's documented brute-force definition: setup
    # first, then cleanup, neither when nothing awaits launch.
    if job.setup_pending:
        expect_aux = job.setup_tip
    elif job.cleanup_pending:
        expect_aux = job.cleanup_tip
    else:
        expect_aux = None
    assert job.pending_aux_tip() is expect_aux


@pytest.mark.integration
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed_salt=st.integers(min_value=0, max_value=50),
    stop_at=st.floats(min_value=5.0, max_value=1500.0),
    scenario=st.sampled_from(["baseline", "steady"]),
    phases=st.sampled_from([0, 2]),
)
def test_cached_views_coherent_mid_flight(seed_salt, stop_at, scenario, phases):
    cluster = _build_run(
        scenario, "suspend", 8, 6,
        derive_seed(9000, "scale", scenario, 8, "suspend", seed_salt),
        heartbeat_phases=phases,
    )
    cluster.sim.run(until=stop_at)
    for job in cluster.jobtracker.jobs.values():
        _assert_job_coherent(job)


# -- index exactness ----------------------------------------------------------


@pytest.mark.integration
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed_salt=st.integers(min_value=0, max_value=50),
    scenario=st.sampled_from(["baseline", "shuffle-heavy", "steady"]),
    primitive=st.sampled_from(["wait", "kill", "suspend"]),
    phases=st.sampled_from([0, 1, 4]),
)
def test_index_exact_on_random_cells(seed_salt, scenario, primitive, phases):
    seed = derive_seed(9000, "scale", scenario, 6, primitive, seed_salt)
    # A fresh MonkeyPatch per example: Hypothesis reruns the body, and
    # the function-scoped fixture would be shared across the examples.
    checked_run(pytest.MonkeyPatch(), lambda: scale_run_once(
        scenario=scenario, primitive_name=primitive, trackers=6,
        num_jobs=5, seed=seed, heartbeat_phases=phases,
    ))
