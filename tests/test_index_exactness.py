"""Exactness of the per-heartbeat shortcuts, checked while runs execute.

Three shortcuts answer heartbeats in place of a fresh computation:

* the JobTracker's standing :class:`~repro.hadoop.heartbeat.JobIndex`
  -- live-job membership, the pending-aux list, and HFSP's SRPT
  candidate order, all repaired from job notes instead of rebuilt;
* the skipped walk -- :meth:`JobTracker.heartbeat` processes a report
  and then skips the walk when ``_walk_is_empty`` proves it would
  return no action;
* the idle answer -- :meth:`JobTracker.answer_idle` replies to a
  tracker with nothing to report, without a report or a walk, when
  the same predicate holds;
* the idle fire -- a parked run answers each member it does not walk
  with the idle answer's bookkeeping alone
  (``TaskTracker._idle_fire``), without asking the predicate;
* the whole fire -- a parked run none of whose members may walk
  answers them all at once (``ParkedRun._fire_whole``).

Each run below wraps ``JobTracker.heartbeat``, ``JobTracker._walk``
and ``JobTracker.answer_idle``.  Every report's ``suspended_bytes``
must equal the node's headroom snapshot's suspended total, and after
every heartbeat the index --
repaired to the present -- must ``==`` a from-scratch build over
``running_jobs()``.  After every walk that ``heartbeat`` skipped, and
after every idle answer, the skipped walk runs anyway as a shadow
(over the processed report, or over a normally built one) and must
return no action; the index is checked after it too.  The index
checks repair a copy and leave the run's own notes pending, so a note
a shortcut must not ignore stays visible to the next heartbeat.  The
shadow walk does repair the run's index, which moves no result:
repairs read only cached, pure job views.  The idle shadow leaves the
tracker's sequence number as the idle answer left it.  At every idle
fire, and for every live member at every whole fire, the predicate
must hold for the member's host, the member must have nothing to
report, and its node's suspended total must not exceed the
JobTracker's peak (neither fire sums it).

Every experiment family of ``tests/test_elision_differential.py`` is
covered, in the studies' own configuration, plus a scale cell that
kills jobs mid-run.  ``tests/test_batch_properties.py`` runs the same
checks over random scale cells.
"""

import pytest

from repro.experiments.faults_study import _run_once as faults_run_once
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _build_run
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.experiments.shuffle_study import _run_once as shuffle_run_once
from repro.hadoop.heartbeat import JobIndex
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasktracker import ParkedRun, TaskTracker
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB


def srpt_key(job):
    return (job.remaining_work_seconds(), job.submit_time, job.job_id)


def repaired_copy(index):
    """A copy of ``index`` with its notes repaired; ``index`` itself
    keeps its pending notes, so checking it changes no later answer."""
    copy = JobIndex()
    for name in JobIndex.__slots__:
        value = getattr(index, name)
        if not isinstance(value, int):
            value = type(value)(value)
        setattr(copy, name, value)
    return copy


def assert_index_exact(jobtracker):
    """The standing index, repaired now (as a copy), equals a
    from-scratch build."""
    index = repaired_copy(jobtracker.job_index)
    running = jobtracker.running_jobs()
    ids = [job.job_id for job in running]
    assert list(index.job_pos) == ids
    index.refresh_aux()
    assert index.aux_jobs == [
        job for job in running if job.pending_aux_tip() is not None
    ]
    scheduler = jobtracker.scheduler
    if isinstance(scheduler, HfspScheduler):
        walked = scheduler._index_candidates(index, {})
        expected = sorted(
            (job for job in running if job.schedulable_tips()), key=srpt_key
        )
        assert [job.job_id for job in walked] == [
            job.job_id for job in expected
        ]
        assert index.cand_keys == [srpt_key(job) for job in expected]
        assert sorted(index.key_of) == sorted(ids)


class Checks:
    """Counts of the checks a run made (so a cell cannot pass vacuously)."""

    heartbeats = 0
    walks = 0
    skipped_walks = 0
    idle_answers = 0
    idle_fires = 0
    #: parked run fires, the members they carried, and the fires that
    #: were whole
    run_fires = 0
    member_heartbeats = 0
    whole_fires = 0


def checked_run(monkeypatch, fn):
    checks = Checks()
    heartbeat = JobTracker.heartbeat
    walk = JobTracker._walk
    answer_idle = JobTracker.answer_idle
    idle_fire = TaskTracker._idle_fire
    run_fire = ParkedRun.fire
    fire_whole = ParkedRun._fire_whole

    def counted_walk(self, report):
        checks.walks += 1
        return walk(self, report)

    def checked_heartbeat(self, report):
        # The report's one memory figure is the headroom snapshot's
        # suspended total, taken over the same live processes.
        head = self.trackers[report.tracker].kernel.memory_headroom()
        assert report.suspended_bytes == (
            head.stopped_resident + head.stopped_swapped
        )
        walks = checks.walks
        response = heartbeat(self, report)
        if checks.walks == walks:
            assert walk(self, report).actions == []
            checks.skipped_walks += 1
        assert_index_exact(self)
        checks.heartbeats += 1
        return response

    def checked_answer_idle(self, tracker):
        if not answer_idle(self, tracker):
            return False
        sequence = tracker._sequence
        shadow = walk(self, tracker.build_report())
        tracker._sequence = sequence
        assert shadow.actions == []
        assert_index_exact(self)
        checks.idle_answers += 1
        return True

    def assert_idle(tracker):
        jobtracker = tracker.jobtracker
        assert jobtracker._walk_is_empty(tracker.host)
        assert not tracker._reportable
        assert (tracker.kernel.suspended_bytes()
                <= jobtracker.peak_suspended_bytes)

    def checked_idle_fire(self):
        assert_idle(self)
        checks.idle_fires += 1
        idle_fire(self)

    def counted_run_fire(self):
        checks.run_fires += 1
        checks.member_heartbeats += self.live
        run_fire(self)

    def checked_fire_whole(self):
        for tracker in self.members:
            if tracker is not None:
                assert_idle(tracker)
        checks.whole_fires += 1
        fire_whole(self)

    with monkeypatch.context() as patch:
        patch.setattr(JobTracker, "heartbeat", checked_heartbeat)
        patch.setattr(JobTracker, "_walk", counted_walk)
        patch.setattr(JobTracker, "answer_idle", checked_answer_idle)
        patch.setattr(TaskTracker, "_idle_fire", checked_idle_fire)
        patch.setattr(ParkedRun, "fire", counted_run_fire)
        patch.setattr(ParkedRun, "_fire_whole", checked_fire_whole)
        fn()
    assert checks.heartbeats > 0
    return checks


@pytest.mark.parametrize("scenario", ["steady", "shuffle-heavy", "baseline"])
def test_scale_cell(monkeypatch, scenario):
    seed = derive_seed(9000, "scale", scenario, 15, "suspend", 0)
    checks = checked_run(monkeypatch, lambda: scale_run_once(
        scenario=scenario, primitive_name="suspend", trackers=15,
        num_jobs=10, seed=seed, heartbeat_phases=4,
    ))
    assert checks.idle_answers > 0
    assert checks.skipped_walks > 0
    assert checks.idle_fires > 0
    assert checks.whole_fires > 0


def test_scale_cell_drifting_heartbeats(monkeypatch):
    seed = derive_seed(9000, "scale", "baseline", 15, "kill", 0)
    checks = checked_run(monkeypatch, lambda: scale_run_once(
        scenario="baseline", primitive_name="kill", trackers=15,
        num_jobs=10, seed=seed,
    ))
    assert checks.idle_answers > 0
    assert checks.skipped_walks > 0
    assert checks.idle_fires == 0  # no grid, no parked run
    assert checks.run_fires == checks.whole_fires == 0


def test_parked_runs_mostly_fire_whole(monkeypatch):
    """The point of parking: idle members cost a run fire, not a walk
    of their own.  On a phase-locked steady cell at least 90% of run
    fires are whole, and at most 20% of the members' heartbeats go
    through the member loop's idle fire."""
    seed = derive_seed(9000, "scale", "steady", 15, "suspend", 0)
    checks = checked_run(monkeypatch, lambda: scale_run_once(
        scenario="steady", primitive_name="suspend", trackers=15,
        num_jobs=10, seed=seed, heartbeat_phases=4,
    ))
    assert checks.whole_fires >= 0.9 * checks.run_fires > 0
    assert checks.idle_fires <= 0.2 * checks.member_heartbeats


def test_scale_cell_with_killed_jobs(monkeypatch):
    """Jobs killed mid-run leave the index through ``kill_job``: one
    still waiting for slots and one already running."""

    def run():
        seed = derive_seed(9000, "scale", "steady", 8, "suspend", 0)
        cluster, _ = _build_run(
            "steady", "suspend", 8, 10, seed,
            heartbeat_phases=4,
        )
        jobtracker = cluster.jobtracker
        cluster.start()
        cluster.sim.run(until=60.0)
        live = jobtracker.running_jobs()
        assert len(live) >= 2
        waiting = [job for job in live if job.schedulable_tips()]
        victims = [live[0], waiting[-1] if waiting else live[-1]]
        for job in victims:
            jobtracker.kill_job(job.job_id)
        cluster.sim.run(until=900.0)
        assert all(job.job_id not in jobtracker.job_index.job_pos
                   for job in victims)

    checks = checked_run(monkeypatch, run)
    assert checks.idle_answers > 0
    assert checks.skipped_walks > 0
    assert checks.idle_fires > 0
    assert checks.whole_fires > 0


def test_shuffle_cell(monkeypatch):
    seed = derive_seed(11000, "shuffle", 15, "kill", 2.5, 0.0, 0)
    checks = checked_run(monkeypatch, lambda: shuffle_run_once(
        primitive_name="kill", trackers=15, num_jobs=8,
        oversubscription=2.5, seed=seed, heartbeat_phases=4,
    ))
    assert checks.skipped_walks > 0
    assert checks.idle_fires > 0
    assert checks.whole_fires > 0


@pytest.mark.parametrize(
    "mode", ["kill", "wait", "suspend-gated", "suspend-ungated"]
)
def test_memscale_cell(monkeypatch, mode):
    from repro.experiments.memscale_study import RESERVE_BYTES, SWAP_BYTES

    seed = derive_seed(
        12000, "memscale", 15, mode, SWAP_BYTES, RESERVE_BYTES, 0
    )
    checks = checked_run(monkeypatch, lambda: memscale_run_once(
        mode=mode, trackers=15, num_jobs=8, seed=seed, heartbeat_phases=4,
    ))
    assert checks.skipped_walks > 0
    assert checks.idle_fires > 0
    assert checks.whole_fires > 0


@pytest.mark.parametrize("primitive", ["suspend", "kill"])
def test_fig2_cell(monkeypatch, primitive):
    from repro.experiments.harness import TwoJobHarness

    harness = TwoJobHarness(primitive, 0.5)
    checked_run(monkeypatch, lambda: harness.run_once(seed=99))


def test_faults_cell(monkeypatch):
    checked_run(monkeypatch, lambda: faults_run_once(
        scenario="node-crash", primitive_name="suspend", seed=7000,
    ))


def one_map_job():
    from repro.workloads.jobspec import JobSpec, TaskSpec

    return JobSpec(name="one", tasks=[
        TaskSpec(input_bytes=70 * MB, parse_rate=7 * MB, output_bytes=0),
    ])


def test_node_loss_requeue_reaches_an_idle_tracker(monkeypatch):
    """A lost node's task returns to the queue outside any heartbeat.
    Its pending candidacy note must stop the next idle answer, or the
    idle survivor would never be offered the task."""
    from repro.hadoop.job import JobState
    from tests.conftest import quick_cluster

    def run():
        cluster = quick_cluster(
            num_nodes=2, scheduler=HfspScheduler(),
            run_job_setup_cleanup=False,
        )
        job = cluster.submit_job(one_map_job())
        (tip,) = job.tips
        cluster.start()
        cluster.sim.run(until=3.0)
        lost = tip.tracker
        assert lost is not None and tip.state.active
        cluster.trackers[lost].shutdown()
        cluster.run_until_jobs_complete()
        assert job.state is JobState.SUCCEEDED
        assert tip.tracker not in (None, lost)

    assert checked_run(monkeypatch, run).idle_answers > 0


def test_idle_answer_waits_while_a_tip_is_bound_to_the_host():
    """A tip bound to the host may owe it a directive, so the tracker
    gets the full walk even with nothing to report and nothing to
    offer.  Here the tip is killed while its launch is on the wire:
    the tracker holds no attempt yet, but the walk must send the kill."""
    from repro.hadoop.heartbeat import KillTaskAction
    from tests.conftest import quick_cluster

    cluster = quick_cluster(scheduler=HfspScheduler())
    jobtracker = cluster.jobtracker
    job = cluster.submit_job(one_map_job())
    (tip,) = job.tips
    cluster.start()
    while tip.tracker is None:
        assert cluster.sim.step()
    tracker = cluster.trackers[tip.tracker]
    assert not tracker._reportable  # the launch has not landed
    jobtracker.kill_task(tip.tip_id)
    jobtracker.scheduler._index_candidates(jobtracker.job_index, {})
    assert not jobtracker.scheduler.may_offer(jobtracker.job_index)
    received = jobtracker.heartbeats_received
    assert not jobtracker.answer_idle(tracker)
    assert jobtracker.heartbeats_received == received
    response = jobtracker.heartbeat(tracker.build_report())
    assert response.actions == [
        KillTaskAction(attempt_id=tip.active_attempt_id, reason="preempted")
    ]


def test_tracker_bound_only_to_succeeded_tips_gets_the_idle_answer():
    """Succeeded tips stay bound to their host (for map-output-loss
    requeue) but are owed no directive, so they do not stop the idle
    answer once the index has nothing to offer."""
    from repro.hadoop.states import TipState
    from tests.conftest import quick_cluster

    cluster = quick_cluster(scheduler=HfspScheduler())
    jobtracker = cluster.jobtracker
    cluster.submit_job(one_map_job())
    cluster.start()
    cluster.run_until_jobs_complete()
    # Let the walks after completion repair the index's removal notes.
    cluster.sim.run(
        until=cluster.sim.now + 3 * jobtracker.config.heartbeat_interval
    )
    (tracker,) = cluster.trackers.values()
    bound = jobtracker._tips_by_tracker[tracker.host]
    assert bound
    assert all(tip.state is TipState.SUCCEEDED for tip in bound.values())
    assert not tracker._reportable
    received = jobtracker.heartbeats_received
    assert jobtracker.answer_idle(tracker)
    assert jobtracker.heartbeats_received == received + 1


def test_busy_tracker_with_a_must_suspend_tip_is_walked():
    """A busy tracker is skipped while nothing can be offered, until a
    tip bound to it awaits a directive: that heartbeat walks and
    carries the suspend."""
    from repro.hadoop.heartbeat import SuspendTaskAction
    from tests.conftest import quick_cluster

    cluster = quick_cluster(
        scheduler=HfspScheduler(), run_job_setup_cleanup=False,
    )
    jobtracker = cluster.jobtracker
    index = jobtracker.job_index
    job = cluster.submit_job(one_map_job())
    (tip,) = job.tips
    cluster.start()
    while (
        tip.tracker is None
        or tip.active_attempt_id not in cluster.trackers[tip.tracker]._reportable
    ):
        assert cluster.sim.step()
    tracker = cluster.trackers[tip.tracker]
    index.refresh_aux()
    jobtracker.scheduler._index_candidates(index, {})
    assert jobtracker._walk_is_empty(tracker.host)
    jobtracker.suspend_task(tip.tip_id)
    assert not jobtracker._walk_is_empty(tracker.host)
    response = jobtracker.heartbeat(tracker.build_report())
    assert response.actions == [
        SuspendTaskAction(attempt_id=tip.active_attempt_id)
    ]


def test_last_work_tip_success_launches_cleanup_on_the_same_heartbeat():
    """The predicate is asked after the report is processed: the status
    that finishes a job's last work tip makes its cleanup tip pending,
    and that very heartbeat launches it."""
    from repro.hadoop.heartbeat import LaunchTaskAction
    from repro.hadoop.states import AttemptState
    from tests.conftest import quick_cluster

    cluster = quick_cluster(scheduler=HfspScheduler())
    jobtracker = cluster.jobtracker
    index = jobtracker.job_index
    job = cluster.submit_job(one_map_job())
    (tip,) = job.tips
    cluster.start()

    def finished_unreported():
        tracker = cluster.trackers.get(tip.tracker or "")
        attempt = tracker and tracker.attempts.get(tip.active_attempt_id)
        return attempt is not None and attempt.state is AttemptState.SUCCEEDED

    while not finished_unreported():
        assert cluster.sim.step()
    tracker = cluster.trackers[tip.tracker]
    index.refresh_aux()
    jobtracker.scheduler._index_candidates(index, {})
    assert jobtracker._walk_is_empty(tracker.host)
    response = jobtracker.heartbeat(tracker.build_report())
    assert response.actions == [
        LaunchTaskAction(
            tip_id=job.cleanup_tip.tip_id,
            attempt_id=job.cleanup_tip.active_attempt_id,
            is_cleanup=True,
        )
    ]


def test_work_found_by_a_parked_member_reaches_the_members_after_it(
        monkeypatch):
    """A member that walks can change what the JobTracker offers, so a
    parked run asks again before it answers the next member idle.
    Two idle trackers share one run; the first is woken, and its
    heartbeat submits a three-task job (one map slot each).  It takes
    a map task, and the second member, in the same run, must walk and
    take another -- as its own heartbeat event would."""
    from tests.conftest import quick_cluster
    from tests.test_parking_differential import job_spec

    cluster = quick_cluster(
        num_nodes=2, scheduler=HfspScheduler(), heartbeat_phases=1,
        map_slots=1, run_job_setup_cleanup=False,
    )
    jobtracker = cluster.jobtracker
    cluster.start()
    cluster.sim.run(until=1.0)
    first, second = cluster.trackers.values()
    run = jobtracker.parked_run
    assert first._run is run and second._run is run
    assert run.members == [first, second]

    heartbeat = TaskTracker._heartbeat

    def submitting_heartbeat(self, out_of_band=False):
        if self is first and not jobtracker.jobs:
            jobtracker.submit_job(job_spec("found", 3))
        heartbeat(self, out_of_band)

    first.wake()
    with monkeypatch.context() as patch:
        patch.setattr(TaskTracker, "_heartbeat", submitting_heartbeat)
        checks = checked_run(monkeypatch, lambda: cluster.sim.run(until=1.05))
    responses = [(rec.time, rec.fields["tracker"])
                 for rec in cluster.sim.trace_log.find("jt.response")]
    assert responses == [(1.05, first.host), (1.05, second.host)]
    assert checks.idle_fires == 0
