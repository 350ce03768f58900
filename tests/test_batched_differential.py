"""Batched-vs-unbatched heartbeat dispatch differential suite.

The batched dispatch path (``HadoopConfig.batch_heartbeats``) must be
*behaviorally invisible*: for any workload, the run with batching on
and the run with batching off -- everything else identical, including
the heartbeat phase grid -- must produce the same TraceLog digest,
the same completion times, the same wasted-work ledger, the same
metric sketch, event for event.  The scripts below throw seeded
workloads from every experiment family at both paths and compare
(mirroring the old-vs-new resource model suite in
``test_resources_differential.py``).

Why the invariant holds:

* **the index is repaired, not approximated** -- the JobTracker's
  standing :class:`~repro.hadoop.heartbeat.JobIndex` keeps the live
  jobs, the pending-aux list and the scheduler's sorted candidate
  order for the whole run, and every structure is repaired through
  membership and observer notes to exactly the state a from-scratch
  rebuild would compute (same floats, same tie-breaks, same iteration
  order; ``tests/test_index_exactness.py`` checks it per heartbeat);
* **the index reads, never schedules** -- it adds no event and
  draws no random number; the event queue, the RNG draws and the
  trace stream are untouched;
* **the phase grid is mode-independent** -- ``heartbeat_phases`` is
  applied identically in both runs, so the only difference between
  the legs is whether the JobTracker amortizes its per-heartbeat
  scans, never *when* heartbeats happen.

Comparisons are exact (``==`` on digests, floats and sketches), not
tolerance-based: both paths must do the identical arithmetic in the
identical order.
"""

import pytest

from repro.experiments.memscale_study import (
    RESERVE_BYTES,
    SWAP_BYTES,
)
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.experiments.shuffle_study import _run_once as shuffle_run_once

#: result keys every paired scale/shuffle/memscale run must agree on
#: (completion times, the wasted-work ledger total, and the full
#: metric sketch, which folds in the per-job sojourn distributions)
STRICT_KEYS = (
    "makespan",
    "mean_sojourn",
    "wasted",
    "jobs_completed",
    "events",
    "sketch",
    "trace_digest",
)


def assert_equivalent(batched, unbatched, what):
    """Exact equality on every strict key both results carry."""
    for key in STRICT_KEYS:
        if key in batched or key in unbatched:
            assert batched[key] == unbatched[key], (
                f"{what}: batched/unbatched diverged on {key!r}: "
                f"{batched.get(key)!r} != {unbatched.get(key)!r}"
            )


def _scale_pair(scenario, primitive, phases, seed_salt):
    seed = derive_seed(9000, "scale", scenario, 15, primitive, seed_salt)

    def run(batched):
        return scale_run_once(
            scenario=scenario, primitive_name=primitive, trackers=15,
            num_jobs=10, seed=seed, trace=True,
            heartbeat_phases=phases, batch_heartbeats=batched,
        )

    return run(True), run(False)


#: the scale-replay scripts: every scenario family, every preemption
#: primitive, drifting (phases=0) and phase-locked (1/4) heartbeat
#: grids, several seeds -- 12 scripts
SCALE_SCRIPTS = [
    ("baseline", "suspend", 4, 0),
    ("baseline", "suspend", 4, 1),
    ("baseline", "suspend", 0, 0),  # drifting grid: size-1 batches
    ("baseline", "suspend", 1, 0),  # single phase: cluster-wide batches
    ("baseline", "kill", 4, 0),
    ("baseline", "wait", 4, 0),
    ("shuffle-heavy", "suspend", 4, 0),
    ("shuffle-heavy", "kill", 4, 2),
    ("burst", "suspend", 4, 0),
    ("burst", "wait", 1, 1),
    ("diurnal", "suspend", 4, 0),
    ("steady", "suspend", 4, 0),
]


@pytest.mark.parametrize(
    "scenario,primitive,phases,seed_salt", SCALE_SCRIPTS,
    ids=[f"{s}-{p}-ph{ph}-s{salt}" for s, p, ph, salt in SCALE_SCRIPTS],
)
def test_scale_cell_equivalence(scenario, primitive, phases, seed_salt):
    batched, unbatched = _scale_pair(scenario, primitive, phases, seed_salt)
    assert_equivalent(
        batched, unbatched, f"scale/{scenario}/{primitive}/ph{phases}"
    )


#: the network-fabric shuffle scripts: flow-routed transfers whose
#: completion times depend on exact action ordering within heartbeats
SHUFFLE_SCRIPTS = [("kill", 0), ("suspend", 1)]


@pytest.mark.parametrize(
    "primitive,seed_salt", SHUFFLE_SCRIPTS,
    ids=[f"{p}-s{salt}" for p, salt in SHUFFLE_SCRIPTS],
)
def test_shuffle_cell_equivalence(primitive, seed_salt):
    seed = derive_seed(11000, "shuffle", 15, primitive, 2.5, 0.0, seed_salt)

    def run(batched):
        return shuffle_run_once(
            primitive_name=primitive, trackers=15, num_jobs=8,
            oversubscription=2.5, seed=seed, trace=True,
            heartbeat_phases=4, batch_heartbeats=batched,
        )

    assert_equivalent(run(True), run(False), f"shuffle/{primitive}")


#: the memory-admission scripts: all four modes, because the gated
#: ones read per-heartbeat headroom snapshots whose timing the phase
#: grid controls and whose consumption the batch must not perturb
MEMSCALE_MODES = ["kill", "wait", "suspend-gated", "suspend-ungated"]


@pytest.mark.parametrize("mode", MEMSCALE_MODES)
def test_memscale_cell_equivalence(mode):
    seed = derive_seed(
        12000, "memscale", 15, mode, SWAP_BYTES, RESERVE_BYTES, 0
    )

    def run(batched):
        return memscale_run_once(
            mode=mode, trackers=15, num_jobs=8, seed=seed, trace=True,
            heartbeat_phases=4, batch_heartbeats=batched,
        )

    assert_equivalent(run(True), run(False), f"memscale/{mode}")


#: the paper's two-job microbenchmark: suspension mid-flight at 50%
#: progress, where a single reordered action changes the figure
FIG2_PRIMITIVES = ["suspend", "kill"]


@pytest.mark.parametrize("primitive", FIG2_PRIMITIVES)
def test_fig2_cell_equivalence(primitive):
    from repro.experiments import params as P
    from repro.experiments.harness import TwoJobHarness

    def run(batched):
        config = P.paper_hadoop_config().replace(
            heartbeat_phases=4, batch_heartbeats=batched,
        )
        harness = TwoJobHarness(primitive, 0.5, runs=1, keep_traces=True,
                                hadoop_config=config)
        result = harness.run_once(seed=99)
        return result

    batched, unbatched = run(True), run(False)
    assert (
        batched.trace_cluster.sim.trace_log.digest()
        == unbatched.trace_cluster.sim.trace_log.digest()
    )
    assert batched.sojourn_th == unbatched.sojourn_th
    assert batched.makespan == unbatched.makespan
    assert batched.tl_wasted_seconds == unbatched.tl_wasted_seconds
    assert batched.suspend_count == unbatched.suspend_count


@pytest.mark.slow
def test_scale_2000_trace_digest_equivalence():
    """The acceptance cell: 2000 trackers on the steady mix with full
    tracing, batched vs unbatched TraceLog digests byte-identical.

    The wall-clock half of the acceptance bar (>=3x) lives in
    ``tools/bench_guard.py``'s ``scale_2000`` bench, which runs the
    600-job cell untraced; this test pins the *digest* half at the
    same tracker count with a lighter job load so the traced legs stay
    inside the slow-tier budget.
    """
    seed = derive_seed(9000, "scale", "steady", 2000, "suspend", 0)

    def run(batched):
        return scale_run_once(
            scenario="steady", primitive_name="suspend", trackers=2000,
            num_jobs=60, seed=seed, trace=True,
            heartbeat_phases=4, batch_heartbeats=batched,
        )

    assert_equivalent(run(True), run(False), "scale/steady/2000")
