"""Parked-run differential suite.

An idle phase-locked TaskTracker does not arm a heartbeat event of
its own: it rides a parked run, one engine event standing for every
tracker due back to back at one grid instant
(:class:`repro.hadoop.tasktracker.ParkedRun`).  The heartbeat before
parking (kept in :func:`tests.legacy_heartbeat.unparked_heartbeat`)
re-armed its own event after every heartbeat.  The two must agree on
everything an observer can see, exactly:

* the full TraceLog digest (engine records included) and the science
  digest;
* the fired event count and the profiled per-label event counts;
* every tracker's heartbeat ``_sequence`` and ``_phase_tick``;
* the JobTracker's ``heartbeats_received``, ``last_heartbeat`` (the
  expiry input) and ``peak_suspended_bytes``;
* job submit and finish times and the wasted-work ledgers;
* the study's whole result.

Only the engine's schedule calls drop, and each phase-locked cell
checks that they did.

A run whose members all get the idle answer fires *whole*
(``ParkedRun._fire_whole``): it re-arms itself once and keeps its
members' counters lazily.  Each run is made a third time with every
run walking its members one by one (:func:`member_loop_fire`), and the
whole fires must make exactly the schedule calls that walk makes.
Lazy counters are read through ``JobTracker.settle_heartbeats``.

Two groups of runs: the phase-locked study cells, and seeded scripts
for the paths those cells never reach -- crashes, restarts and
expiries of parked trackers, out-of-band heartbeats on parked
trackers (kill-cleanup's included), non-heartbeat events on grid
instants, a checkpoint/restore with live runs, directives and
launches reaching a parked host, and the whole fire's own paths:
rejoining a run, merging into a run, mixed phase origins, compaction,
and an expiry check reading lazily kept heartbeat times.
"""

import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import restore, snapshot
from repro.errors import TaskStateError
from repro.experiments.memscale_study import RESERVE_BYTES, SWAP_BYTES
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.experiments.shuffle_study import _run_once as shuffle_run_once
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasktracker import ParkedRun, TaskTracker
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import fast_hadoop_config, small_node_config
from tests.legacy_heartbeat import unparked_heartbeat


def observation(cluster):
    """Everything the suite compares, for one cluster."""
    sim, jobtracker = cluster.sim, cluster.jobtracker
    jobtracker.settle_heartbeats()
    trackers = cluster.trackers.values()
    return {
        "digest": sim.trace_log.digest(),
        "science_digest": sim.trace_log.science_digest(),
        "events": sim.events_fired,
        "label_counts": sim.label_counts,
        "sequences": {t.host: t._sequence for t in trackers},
        "phase_ticks": {t.host: t._phase_tick for t in trackers},
        "heartbeats_received": jobtracker.heartbeats_received,
        "last_heartbeat": dict(jobtracker.last_heartbeat),
        "peak_suspended_bytes": jobtracker.peak_suspended_bytes,
        "jobs": {job.job_id: (job.submit_time, job.finish_time)
                 for job in jobtracker.jobs.values()},
        "wasted": jobtracker.wasted.entries(),
        "wasted_network": jobtracker.wasted.network_entries(),
    }


_fire = ParkedRun.fire


def member_loop_fire(run):
    """A run fire that never fires whole: every member walks, or gets
    the idle answer's bookkeeping, one by one."""
    run.origin = None
    _fire(run)


MODES = ("unparked", "member loop", "whole")


def install(patch, mode):
    """The heartbeat of ``mode``: ``unparked`` re-arms an event of its
    own after every heartbeat, ``member loop`` parks but walks every
    run member by member, ``whole`` is the heartbeat as it is."""
    if mode == "unparked":
        patch.setattr(TaskTracker, "_heartbeat", unparked_heartbeat)
    elif mode == "member loop":
        patch.setattr(ParkedRun, "fire", member_loop_fire)


def assert_same(parked, unparked, looped, saves=True):
    """Equal observations; parking saved schedule calls (``saves``)
    or at least added none, and whole fires made exactly the schedule
    calls of the member loop."""
    old, new = observation(unparked), observation(parked)
    for key in old:
        assert new[key] == old[key], key
    scheduled = parked.sim.events_scheduled
    assert scheduled < unparked.sim.events_scheduled or (
        not saves and scheduled == unparked.sim.events_scheduled)
    assert scheduled == looped.sim.events_scheduled


def without_cluster(result):
    if isinstance(result, dict):
        return result
    return {key: value for key, value in vars(result).items()
            if key != "trace_cluster"}


def observed_run(monkeypatch, fn, mode):
    """``fn()`` with every cluster traced and profiled, under the
    heartbeat of ``mode`` (see :func:`install`)."""
    clusters = []
    build = HadoopCluster.__init__

    def build_observed(self, *args, **kwargs):
        kwargs["trace"] = True
        kwargs["profile"] = True
        build(self, *args, **kwargs)
        clusters.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(HadoopCluster, "__init__", build_observed)
        install(patch, mode)
        result = fn()
    return without_cluster(result), clusters


def assert_parking_equivalent(monkeypatch, fn, saves=True):
    (old, old_clusters), (_, looped), (new, new_clusters) = (
        observed_run(monkeypatch, fn, mode) for mode in MODES)
    assert new == old
    assert len(new_clusters) == len(old_clusters) == len(looped) >= 1
    for parked, unparked, loop in zip(new_clusters, old_clusters, looped):
        assert_same(parked, unparked, loop, saves)


# -- the phase-locked study cells ------------------------------------------------


@pytest.mark.parametrize("phases", [1, 4])
@pytest.mark.parametrize("primitive", ["wait", "kill", "suspend"])
def test_scale_cell(monkeypatch, primitive, phases):
    seed = derive_seed(9000, "scale", "baseline", 15, primitive, 0)
    assert_parking_equivalent(monkeypatch, lambda: scale_run_once(
        scenario="baseline", primitive_name=primitive, trackers=15,
        num_jobs=10, seed=seed, trace=True, heartbeat_phases=phases,
    ))


@pytest.mark.parametrize(
    "mode", ["kill", "wait", "suspend-gated", "suspend-ungated"]
)
def test_memscale_cell(monkeypatch, mode):
    seed = derive_seed(
        12000, "memscale", 15, mode, SWAP_BYTES, RESERVE_BYTES, 0
    )
    assert_parking_equivalent(monkeypatch, lambda: memscale_run_once(
        mode=mode, trackers=15, num_jobs=8, seed=seed, trace=True,
        heartbeat_phases=4,
    ))


def test_shuffle_cell(monkeypatch):
    seed = derive_seed(11000, "shuffle", 15, "kill", 2.5, 0.0, 0)
    assert_parking_equivalent(monkeypatch, lambda: shuffle_run_once(
        primitive_name="kill", trackers=15, num_jobs=8,
        oversubscription=2.5, seed=seed, trace=True, heartbeat_phases=4,
    ))


@pytest.mark.parametrize("primitive", ["suspend", "kill"])
def test_fig2_cell(monkeypatch, primitive):
    from repro.experiments import params as P
    from repro.experiments.harness import TwoJobHarness

    config = P.paper_hadoop_config().replace(heartbeat_phases=4)
    harness = TwoJobHarness(primitive, 0.5, runs=1, keep_traces=True,
                            hadoop_config=config)
    # One tracker: every run has one member, so nothing is saved.
    assert_parking_equivalent(
        monkeypatch, lambda: harness.run_once(seed=99), saves=False
    )


# -- seeded scripts --------------------------------------------------------------

INTERVAL = 1.0
HORIZON = 70.0


def grid_instant(slot, tick):
    """A start-time grid instant, computed as the trackers do."""
    return (0.05 + 0.11 * slot) + INTERVAL * tick


def job_spec(name, tasks):
    return JobSpec(name=name, tasks=[
        TaskSpec(input_bytes=21 * MB, parse_rate=7 * MB, output_bytes=0)
        for _ in range(tasks)
    ])


#: ``(submit delay, map tasks)`` of a script's jobs, unless it says
JOBS = [(0.0, 4), (grid_instant(0, 9), 2)]


class Operator:
    """Applies one script op to the cluster (module level, so a
    checkpoint pickles it with the events that call it)."""

    def __init__(self, cluster):
        self.cluster = cluster

    def __call__(self, op):
        kind, arg = op[0], op[2]
        cluster = self.cluster
        jobtracker = cluster.jobtracker
        hosts = sorted(cluster.trackers)
        if kind == "crash":
            host = hosts[arg % len(hosts)]
            if cluster.trackers[host].started:
                cluster.crash_tracker(host)
                if op[3] is not None:
                    cluster.sim.schedule(op[3], self, ("restart", None, host),
                                         label="script")
        elif kind == "restart":
            if not cluster.trackers[arg].started:
                cluster.restart_tracker(arg)
        elif kind == "oob":
            cluster.trackers[hosts[arg % len(hosts)]].request_oob_heartbeat()
        elif kind == "submit":
            jobtracker.submit_job(job_spec(f"s{len(jobtracker.jobs)}", arg))
        elif kind == "kill_job":
            jobs = jobtracker.running_jobs()
            if jobs:
                jobtracker.kill_job(jobs[arg % len(jobs)].job_id)
        elif kind in ("kill_task", "suspend_task", "resume_task"):
            tips = [tip for _, tip in sorted(jobtracker._tips.items())
                    if tip.state.active]
            if tips:
                tip = tips[arg % len(tips)]
                try:
                    getattr(jobtracker, kind)(tip.tip_id)
                except TaskStateError:
                    pass
        # "tick": a non-heartbeat event that does nothing


TIME = st.one_of(
    st.builds(grid_instant, st.integers(0, 2), st.integers(1, 40)),
    st.integers(5, 400).map(lambda n: n / 10),
)
OP = st.one_of(
    st.tuples(st.just("crash"), TIME, st.integers(0, 7),
              st.sampled_from([None, 4.0, 30.0])),
    st.tuples(st.sampled_from(
        ["oob", "kill_task", "suspend_task", "resume_task", "kill_job"]),
        TIME, st.integers(0, 63)),
    st.tuples(st.just("submit"), TIME, st.integers(1, 3)),
    st.tuples(st.just("tick"), TIME, st.just(0)),
)
SCRIPT = st.fixed_dictionaries({
    "trackers": st.integers(2, 4),
    "phases": st.integers(1, 3),
    # a cleanup longer than the interval ends on a parked tracker
    "cleanup": st.sampled_from([0.5, 2.5]),
    # out-of-band heartbeats faster than an rpc hop can park a tracker
    # while a launch is on the wire
    "latencies": st.sampled_from([(0.05, 0.01), (0.005, 0.02)]),
    "ops": st.lists(OP, max_size=10),
    "checkpoint": st.one_of(st.none(), TIME),
})


def run_script(script, mode, coverage=None):
    """One scripted cell up to ``HORIZON`` under the heartbeat of
    ``mode``; returns the final cluster (in ``whole`` mode, restored
    from a mid-run checkpoint when the script has one).  ``coverage``
    counts the parked-tracker paths."""
    oob, rpc = script["latencies"]
    cluster = HadoopCluster(
        num_nodes=script["trackers"],
        node_config=small_node_config(),
        hadoop_config=fast_hadoop_config(
            heartbeat_phases=script["phases"],
            tracker_expiry_interval=20.0,
            task_cleanup_duration=script["cleanup"],
            oob_heartbeat_latency=oob,
            rpc_latency=rpc,
        ),
        scheduler=HfspScheduler(),
        seed=5,
        trace=True,
        profile=True,
    )
    for index, (delay, tasks) in enumerate(script.get("jobs", JOBS)):
        cluster.submit_job(job_spec(f"j{index}", tasks), delay=delay)
    operator = Operator(cluster)
    for op in script["ops"]:
        cluster.sim.schedule_at(op[1], operator, op, label="script")
    cluster.start()
    if mode != "whole":
        with pytest.MonkeyPatch.context() as patch:
            install(patch, mode)
            cluster.sim.run(until=HORIZON)
        return cluster
    with count_parked_paths(coverage if coverage is not None else Counter()):
        if script["checkpoint"] is not None:
            cluster.sim.run(until=script["checkpoint"])
            parked = sum(t._run is not None for t in cluster.trackers.values())
            if coverage is not None:
                coverage["parked at checkpoint"] += parked
            cluster = restore(snapshot(cluster))
        cluster.sim.run(until=HORIZON)
    return cluster


class count_parked_paths:
    """Counts, while active, the calls that found their tracker parked,
    and the paths of runs that fire whole."""

    WRAPPED = {
        "request_oob_heartbeat": "oob on a parked tracker",
        "_finish_cleanup": "cleanup done on a parked tracker",
        "shutdown": "crash of a parked tracker",
        "wake": "wake of a parked tracker",
    }

    def __init__(self, coverage):
        self.coverage = coverage
        self.patch = pytest.MonkeyPatch()

    def __enter__(self):
        for name, what in self.WRAPPED.items():
            self.patch.setattr(TaskTracker, name,
                               self._counting(getattr(TaskTracker, name), what))
        coverage = self.coverage
        #: when each tracker last joined each run
        joined = {}

        @self._wrap(ParkedRun, "join")
        def join(method, run, tracker):
            if (run, tracker) in joined:
                coverage["rejoin of the same run"] += 1
            joined[run, tracker] = tracker.sim.now
            method(run, tracker)

        @self._wrap(ParkedRun, "fire")
        def fire(method, run):
            origins = {m._phase_origin for m in run.members if m is not None}
            if len(origins) > 1:
                coverage["fire of a mixed-origin run"] += 1
            method(run)

        @self._wrap(ParkedRun, "_fire_whole")
        def fire_whole(method, run):
            compacts = len(run.members) > 2 * run.live
            method(run)
            if run.jobtracker.parked_run is not run:
                coverage["whole fire merged into the newest run"] += 1
            elif compacts:
                coverage["compaction"] += 1

        @self._wrap(JobTracker, "_check_tracker_expiry")
        def check_expiry(method, jobtracker):
            # Trackers parked in one run for longer than the expiry
            # interval: only that run's whole fires kept them alive.
            deadline = (jobtracker.sim.now
                        - jobtracker.config.tracker_expiry_interval)
            kept_lazily = any(
                joined.get((tracker._run, tracker), deadline) < deadline
                for tracker in jobtracker.trackers.values())
            lost = jobtracker.trackers_lost
            method(jobtracker)
            if kept_lazily and jobtracker.trackers_lost > lost:
                coverage["expiry beside long-parked trackers"] += 1

        return self

    def _wrap(self, cls, name):
        """Install the decorated ``counter(method, *args)`` as
        ``cls.name``."""
        method = getattr(cls, name)

        def install(counter):
            @functools.wraps(method)
            def counted(*args):
                return counter(method, *args)

            self.patch.setattr(cls, name, counted)
            return counter

        return install

    def __exit__(self, *exc):
        self.patch.undo()

    def _counting(self, method, what):
        coverage = self.coverage

        @functools.wraps(method)
        def counted(tracker, *args):
            run = tracker._run
            if run is not None:
                coverage[what] += 1
                if run.fires:
                    coverage[what + " in a run that fired whole"] += 1
            return method(tracker, *args)

        return counted


def assert_script_equivalent(script, coverage=None):
    unparked, looped = (run_script(script, mode) for mode in MODES[:2])
    parked = run_script(script, "whole", coverage=coverage)
    assert_same(parked, unparked, looped, saves=False)
    return parked


@pytest.mark.integration
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=SCRIPT)
def test_seeded_scripts(script):
    assert_script_equivalent(script)


#: scripts that between them reach every parked-tracker path
EDGE_SCRIPTS = [
    # a task and then its job killed, with a kill cleanup that
    # outlives the interval (so it ends on parked trackers), then a
    # crash that expires (restart after the 20 s expiry) and one that
    # does not
    {"trackers": 3, "phases": 1, "cleanup": 2.5,
     "latencies": (0.05, 0.01),
     "ops": [("kill_task", grid_instant(0, 2), 0),
             ("kill_job", 3.3, 0),
             ("tick", grid_instant(0, 12), 0),
             ("oob", grid_instant(0, 14), 1),
             ("oob", 15.5, 2),
             ("crash", grid_instant(0, 20), 1, 30.0),
             ("crash", 24.3, 2, 4.0),
             ("submit", grid_instant(0, 30), 2)],
     "checkpoint": grid_instant(0, 17)},
    # three phases, jobs arriving on grid instants, a job killed
    {"trackers": 4, "phases": 3, "cleanup": 2.5,
     "latencies": (0.05, 0.01),
     "ops": [("submit", grid_instant(1, 5), 3),
             ("kill_job", grid_instant(2, 6), 1),
             ("suspend_task", 7.0, 0),
             ("resume_task", grid_instant(0, 9), 0),
             ("crash", grid_instant(2, 12), 3, None),
             ("oob", grid_instant(1, 16), 0)],
     "checkpoint": 21.3},
]


def test_edge_scripts_reach_every_parked_path():
    coverage = Counter()
    expired = 0
    for script in EDGE_SCRIPTS:
        parked = assert_script_equivalent(script, coverage)
        expired += len(parked.sim.trace_log.find("jt.tracker-expired"))
    assert expired > 0
    for what in ("oob on a parked tracker", "cleanup done on a parked tracker",
                 "crash of a parked tracker", "parked at checkpoint"):
        assert coverage[what] > 0, (what, coverage)


# -- the paths of a run that fires whole ------------------------------------------


def idle_script(trackers, ops):
    """One phase; the default jobs are done by ~15 s, and the trackers
    idle in one run that fires whole from then on."""
    return {"trackers": trackers, "phases": 1, "cleanup": 0.5,
            "latencies": (0.05, 0.01), "ops": ops, "checkpoint": None}


#: one script per path of a run that fires whole, by the coverage key
#: it must reach
WHOLE_FIRE_SCRIPTS = {
    # An out-of-band heartbeat requested just before the run fires:
    # the tracker leaves, the run re-arms without it, and the
    # out-of-band heartbeat parks it back into that same run.
    "rejoin of the same run": idle_script(
        3, [("oob", grid_instant(0, 40) - 0.01, 1)]),
    # One requested mid-interval: its heartbeat opens a second run for
    # the next instant, which merges into the first when both fire.
    "whole fire merged into the newest run": idle_script(
        3, [("oob", 40.3, 1)]),
    # node01 restarts at 24.0 onto the grid 24.05 + k, which coincides
    # bit for bit with its peers' 0.05 + k: it joins their run with
    # another phase origin, and the run walks its members from then on.
    "fire of a mixed-origin run": idle_script(3, [("crash", 20.0, 1, 4.0)]),
    # Three of four members leave between two fires.
    "compaction": idle_script(4, [("oob", 40.3, host) for host in range(3)]),
    # The launch-on-the-wire timeline, shifted so that node00's idle
    # out-of-band heartbeat (10.052) parks it into node01's run right
    # after that run fired whole (10.05); the launch lands at 10.057.
    "wake of a parked tracker in a run that fired whole": {
        "trackers": 2, "phases": 1, "cleanup": 0.5,
        "latencies": (0.005, 0.02), "jobs": [(9.3, 1)],
        "ops": [("oob", 9.5305, 0), ("oob", 10.041, 0), ("oob", 10.047, 0)],
        "checkpoint": None},
    # node02 crashes for good at 25 and expires while its peers have
    # been parked in one run, firing whole, for more than the expiry
    # interval.
    "expiry beside long-parked trackers": idle_script(
        3, [("crash", 25.0, 2, None)]),
}


@pytest.mark.parametrize("path", sorted(WHOLE_FIRE_SCRIPTS))
def test_whole_fire_paths(path):
    coverage = Counter()
    assert_script_equivalent(WHOLE_FIRE_SCRIPTS[path], coverage)
    assert coverage[path] > 0, coverage


# -- a directive and a launch reaching a parked host ----------------------------


def launch_on_the_wire_script(directive):
    """Out-of-band heartbeats faster than an rpc hop: node00 is granted
    the only task at 0.552 (launch lands at 0.572).  An out-of-band
    heartbeat at 0.561 walks, repairing the launch's index notes, and
    one at 0.567 answers idle and parks node00 with its tip bound and
    the launch on the wire.  The launch landing wakes it; with
    ``directive`` the tip is first suspended, which wakes it through
    the JobTracker."""
    ops = [("oob", 0.556, 0), ("oob", 0.562, 0)]
    if directive:
        ops.append(("suspend_task", 0.569, 0))
    return {"trackers": 2, "phases": 1, "cleanup": 0.5,
            "latencies": (0.005, 0.02), "jobs": [(0.0, 1)], "ops": ops,
            "checkpoint": None}


@pytest.mark.parametrize("directive", [False, True])
def test_a_parked_host_is_woken(directive):
    script = launch_on_the_wire_script(directive)
    coverage = Counter()
    assert_script_equivalent(script, coverage)
    # the launch landing, and the suspend before it
    assert coverage["wake of a parked tracker"] == 1 + directive, coverage
