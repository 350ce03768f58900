"""Golden digests for heartbeat dispatch.

Every JobTracker answers heartbeats from its standing
:class:`~repro.hadoop.heartbeat.JobIndex`: the live jobs, the
pending-aux list and HFSP's SRPT candidate order, repaired from job
notes instead of rebuilt per heartbeat.  The values below were pinned
from the last tree that could also run an unindexed walk (a rescan of
the live jobs per heartbeat).  On every cell the indexed and the
unindexed run agreed exactly on the TraceLog digest, the metric
sketch, the event count, the completion times and the wasted-work
ledger, and only then was the agreed value pinned.

So a run that moves any pinned value changed behaviour, not just
speed.  The cells throw seeded workloads from every experiment family
at the dispatch path: every scale scenario and preemption primitive,
drifting (phases=0) and phase-locked (1/4) heartbeat grids, the
network-fabric shuffle, all four memory-admission modes, the paper's
two-job microbenchmark and a 2000-tracker cell.

The per-heartbeat reference -- the index must equal a from-scratch
build after every heartbeat, and every skipped walk must be empty --
lives in ``tests/test_index_exactness.py``.

Comparisons are exact (``==`` on digests, floats and counts), not
tolerance-based.
"""

import hashlib
import json

import pytest

from repro.experiments.memscale_study import (
    RESERVE_BYTES,
    SWAP_BYTES,
)
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.experiments.shuffle_study import _run_once as shuffle_run_once


def sketch_digest(sketch):
    """Short hash of a metric sketch; JSON writes floats exactly."""
    text = json.dumps(sketch, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def assert_golden(result, golden, what):
    """The run's TraceLog digest, sketch hash and event count equal the
    pinned ``(trace_digest, sketch_digest, events)``."""
    actual = (
        result["trace_digest"],
        sketch_digest(result["sketch"]),
        int(result["events"]),
    )
    assert actual == golden, f"{what}: {actual!r} != pinned {golden!r}"


def run_scale(scenario, primitive, phases, seed_salt, num_jobs=10,
              trackers=15):
    seed = derive_seed(9000, "scale", scenario, trackers, primitive,
                       seed_salt)
    return scale_run_once(
        scenario=scenario, primitive_name=primitive, trackers=trackers,
        num_jobs=num_jobs, seed=seed, trace=True, heartbeat_phases=phases,
    )


def run_shuffle(primitive, seed_salt, num_jobs=8):
    seed = derive_seed(11000, "shuffle", 15, primitive, 2.5, 0.0, seed_salt)
    return shuffle_run_once(
        primitive_name=primitive, trackers=15, num_jobs=num_jobs,
        oversubscription=2.5, seed=seed, trace=True, heartbeat_phases=4,
    )


def run_memscale(mode, num_jobs=8):
    seed = derive_seed(
        12000, "memscale", 15, mode, SWAP_BYTES, RESERVE_BYTES, 0
    )
    return memscale_run_once(
        mode=mode, trackers=15, num_jobs=num_jobs, seed=seed, trace=True,
        heartbeat_phases=4,
    )


#: the scale-replay scripts: every scenario family, every preemption
#: primitive, drifting (phases=0) and phase-locked (1/4) heartbeat
#: grids, several seeds -- 12 scripts, 10 jobs on 15 trackers
SCALE_GOLDEN = {
    ("baseline", "suspend", 4, 0): (
        "dadb7b59292bedd444d345f493bc3f3b1a041ec251c59c7d9c41675ea86ba8eb",
        "ae7db89bd8376239", 1736),
    ("baseline", "suspend", 4, 1): (
        "6712376d9b757d7e650c500a106b53724306e2f1872cf1593c61cc54dfbff35b",
        "dcf0af8a6bbcaf27", 10953),
    # drifting grid: every tracker on its own instant
    ("baseline", "suspend", 0, 0): (
        "1e7f7be36b2f3ee9791e43de873af80170590d7d919cb1e80b16817b4cd8eec3",
        "304f6cff02e816a4", 1678),
    # single phase: every tracker on the same instant
    ("baseline", "suspend", 1, 0): (
        "768073773283b19f80ef0de867545be24757d53c26bf70b06dd7f211c4c2d345",
        "0e2299c785fbf5d4", 1729),
    ("baseline", "kill", 4, 0): (
        "6228c6abab275aa710cdd5767c7d0afec0d05cf1e76a42af50e3f23644369abc",
        "89a6d0464b7b3c00", 16092),
    ("baseline", "wait", 4, 0): (
        "87d2a683c1cdd92bacb59c4659c9ec34ae21c1e589724db95ad06965300d4154",
        "ff5ea037d5f031b9", 1839),
    ("shuffle-heavy", "suspend", 4, 0): (
        "f05988d2977943a4e9dc80bd5c58c44d94ccf67bb107ad7b55da7cb0fc9e0d7e",
        "5886b491447d6cf4", 3628),
    ("shuffle-heavy", "kill", 4, 2): (
        "c88f5e09a554e95aee572162a20549a5b8c54a1ab15f93f422ec3b6b8f8f9097",
        "6ebcbce7c57682c0", 2389),
    ("burst", "suspend", 4, 0): (
        "6ec01564f3c8649072297ae1db725d12e391c321705d9d193fc0736d0c88fb8b",
        "ccf0432fd930e795", 2839),
    ("burst", "wait", 1, 1): (
        "3d4690ebf343bbfbc32afb31faea1f7f4f274fd3bdc6bd7661449284815f9c56",
        "79a2f831a382d26f", 1785),
    ("diurnal", "suspend", 4, 0): (
        "147f44b18b1344dec2e736c6cc6ad09b9fcec2a939f2ee75fbaf69285c8fdf06",
        "deea07747e70b0e2", 9923),
    ("steady", "suspend", 4, 0): (
        "a4854e4c84a927f130a0d513e916d7c49400795690e396edd6c0deea27d78f42",
        "6c833ef16fadb52b", 3795),
}


@pytest.mark.parametrize(
    "scenario,primitive,phases,seed_salt", list(SCALE_GOLDEN),
    ids=[f"{s}-{p}-ph{ph}-s{salt}" for s, p, ph, salt in SCALE_GOLDEN],
)
def test_scale_cell_equivalence(scenario, primitive, phases, seed_salt):
    assert_golden(
        run_scale(scenario, primitive, phases, seed_salt),
        SCALE_GOLDEN[scenario, primitive, phases, seed_salt],
        f"scale/{scenario}/{primitive}/ph{phases}/s{seed_salt}",
    )


#: the network-fabric shuffle scripts: flow-routed transfers whose
#: completion times depend on exact action ordering within heartbeats
SHUFFLE_GOLDEN = {
    ("kill", 0): (
        "946436f9f8194143ec84f4644dab5701dbfdb8bd0949e0fc1f9916bec945f5ad",
        "9fe26f3950f1d293", 3303),
    ("suspend", 1): (
        "db9b42863b15ffbe19b91a850940bdb204f648ea82e13c856f40d6d99be45079",
        "af676aaa104e6835", 2265),
}


#: the metered link utilizations ``(uplink_util, core_util)`` of the
#: shuffle cells, which the sketch leaves out; pinned from the tree
#: that metered every link, before metering became opt-in
SHUFFLE_UTIL_GOLDEN = {
    "kill-s0": (0.07889380068246714, 0.05917035051185038),
    "suspend-s1": (0.06531226350119361, 0.04898419762589521),
    "shuffle-kill-10": (0.08963656116151753, 0.06722742087113819),
}


def assert_util_golden(result, cell):
    actual = (result["uplink_util"], result["core_util"])
    assert actual == SHUFFLE_UTIL_GOLDEN[cell], (
        f"{cell}: utilization {actual!r} != pinned "
        f"{SHUFFLE_UTIL_GOLDEN[cell]!r}"
    )


@pytest.mark.parametrize(
    "primitive,seed_salt", list(SHUFFLE_GOLDEN),
    ids=[f"{p}-s{salt}" for p, salt in SHUFFLE_GOLDEN],
)
def test_shuffle_cell_equivalence(primitive, seed_salt):
    result = run_shuffle(primitive, seed_salt)
    assert_golden(
        result,
        SHUFFLE_GOLDEN[primitive, seed_salt],
        f"shuffle/{primitive}/s{seed_salt}",
    )
    assert_util_golden(result, f"{primitive}-s{seed_salt}")


#: the memory-admission scripts: all four modes, because the gated
#: ones read per-heartbeat headroom whose timing the phase grid
#: controls
MEMSCALE_GOLDEN = {
    "kill": (
        "c2e65dd1488f2d3ba8a82d7033e87e26155a648b91f329473e8e7ccf3c8d5dba",
        "bb8b6dca9240b87c", 3696),
    "wait": (
        "e82ad464ceedf3cba02c71359aa0055833ae8597f8a2c90d678681cd98bb4b52",
        "953e016c7ee3aef3", 6707),
    "suspend-gated": (
        "c3d28e89179870f5f07486db621c14a1f9dcc5519980d7503900e8999fbad1a5",
        "3672767d1e25177e", 11405),
    "suspend-ungated": (
        "028410e94f942e23f8f7e60b596d424861fe6a61e77196058e6e309ac1e8cee2",
        "b36586ef395c7bd9", 1606),
}


@pytest.mark.parametrize("mode", list(MEMSCALE_GOLDEN))
def test_memscale_cell_equivalence(mode):
    assert_golden(
        run_memscale(mode), MEMSCALE_GOLDEN[mode], f"memscale/{mode}"
    )


#: one larger cell per family: 12 scale jobs, 10 shuffle and 10
#: memscale jobs
LARGER_GOLDEN = {
    "scale-baseline-12": (
        lambda: run_scale("baseline", "suspend", 4, 0, num_jobs=12),
        ("0cfeaa1739e09a73f26522a9961d3a975e3a80f4a7bc878d4c03c76184cab850",
         "daee5d440a6a1ec3", 4155)),
    "scale-steady-12": (
        lambda: run_scale("steady", "suspend", 4, 0, num_jobs=12),
        ("23ef6f9bb8ded8e6dbb135d288cc570c241217705aa3b95395f7eb77b0655712",
         "33524195bcc439b0", 3841)),
    "shuffle-kill-10": (
        lambda: run_shuffle("kill", 0, num_jobs=10),
        ("5e1a41df4fb82ecb0f9a936274b370d2df2291ef25dc95f6c465aeaab5eceb56",
         "75569cf6dde60830", 3736)),
    "memscale-suspend-gated-10": (
        lambda: run_memscale("suspend-gated", num_jobs=10),
        ("3e70fe910cc1c1aac18e425a421bbb3a60f0cf849bf30f3a5b05a30a926adfb0",
         "71a011395cd329d3", 11456)),
}


@pytest.mark.parametrize("cell", list(LARGER_GOLDEN))
def test_larger_cell_equivalence(cell):
    run, golden = LARGER_GOLDEN[cell]
    result = run()
    assert_golden(result, golden, cell)
    if cell in SHUFFLE_UTIL_GOLDEN:
        assert_util_golden(result, cell)


#: the paper's two-job microbenchmark: suspension mid-flight at 50%
#: progress, where a single reordered action changes the figure;
#: pinned are the engine digest, the science digest, the event count,
#: the small job's sojourn, the makespan, the wasted seconds and the
#: suspension count
FIG2_GOLDEN = {
    "suspend": (
        "c867c0f00c7774e3f6fa09651e9b56713a27a309c1b4d976e45b4310c505bd66",
        "aef6fd963fddd60495c1f9a32c3edf960b56828f5719831b1f0a35e159a695ea",
        101, 81.17392447175536, 157.3196658482967, 0.0, 1),
    "kill": (
        "c4536943685d04441cfc78785103c8ea6a832aad8519e8a20a7356527b38ed36",
        "d53556815cc3bf2edde201ab5af12b6d7d33370e88f099449aad5db980461ae0",
        117, 83.02392447175536, 200.46192156731496, 38.96436168850055, 0),
}


@pytest.mark.parametrize("primitive", list(FIG2_GOLDEN))
def test_fig2_cell_equivalence(primitive):
    from repro.experiments import params as P
    from repro.experiments.harness import TwoJobHarness

    config = P.paper_hadoop_config().replace(heartbeat_phases=4)
    harness = TwoJobHarness(primitive, 0.5, keep_traces=True,
                            hadoop_config=config)
    result = harness.run_once(seed=99)
    sim = result.trace_cluster.sim
    assert (
        sim.trace_log.digest(),
        sim.trace_log.science_digest(),
        sim.events_fired,
        result.sojourn_th,
        result.makespan,
        result.tl_wasted_seconds,
        result.suspend_count,
    ) == FIG2_GOLDEN[primitive]


@pytest.mark.slow
def test_scale_2000_trace_digest_equivalence():
    """The 2000-tracker cell on the steady mix with full tracing, where
    the standing index answers thousands of heartbeats between
    membership changes.

    The wall-clock gate at this tracker count lives in
    ``tools/bench_guard.py``'s ``scale_2000`` bench, which runs the
    600-job cell untraced; this test pins the digest at the same
    tracker count with a lighter job load.
    """
    assert_golden(
        run_scale("steady", "suspend", 4, 0, num_jobs=60, trackers=2000),
        ("d49ccea8f7019e96f8c291564609e4f2c1ebb6bb81c2b67f2f908aa9c897d674",
         "ae8ed4ecdb9cd818", 457517),
        "scale/steady/2000",
    )
