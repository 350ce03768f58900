"""Degenerate heartbeat inputs: stale, unknown and duplicate reports.

Real JobTrackers see reordered and superseded status all the time;
these tests feed synthetic reports straight into
:meth:`repro.hadoop.jobtracker.JobTracker.heartbeat` and check nothing
corrupts.
"""

import pytest

from repro.hadoop.heartbeat import AttemptStatus, HeartbeatReport
from repro.hadoop.states import AttemptState, TipState
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import quick_cluster


def job_spec(name="job", input_mb=70):
    return JobSpec(
        name=name,
        tasks=[TaskSpec(input_bytes=input_mb * MB, parse_rate=7 * MB,
                        output_bytes=0)],
    )


def synthetic_report(tracker, attempts, free_map=0, sequence=999):
    return HeartbeatReport(
        tracker=tracker,
        sequence=sequence,
        free_map_slots=free_map,
        free_reduce_slots=0,
        attempts=attempts,
    )


class TestStaleReports:
    def test_unknown_tip_ignored(self):
        cluster = quick_cluster()
        cluster.start()
        report = synthetic_report(
            "node00",
            [
                AttemptStatus(
                    attempt_id="attempt_zzz_0",
                    tip_id="task_zzz",
                    job_id="9999",
                    state=AttemptState.RUNNING,
                    progress=0.5,
                )
            ],
        )
        response = cluster.jobtracker.heartbeat(report)  # no raise
        assert response.sequence == 999

    def test_superseded_attempt_ignored(self):
        cluster = quick_cluster()
        job = cluster.submit_job(job_spec())
        cluster.start()
        cluster.sim.run(until=6.0)
        tip = job.tips[0]
        # A report about attempt _7 (never created) must not disturb
        # the live attempt's bookkeeping.
        report = synthetic_report(
            "node00",
            [
                AttemptStatus(
                    attempt_id=f"attempt_{tip.tip_id}_7",
                    tip_id=tip.tip_id,
                    job_id=job.job_id,
                    state=AttemptState.KILLED,
                    progress=0.9,
                )
            ],
        )
        cluster.jobtracker.heartbeat(report)
        assert tip.state is TipState.RUNNING
        cluster.run_until_jobs_complete()
        assert tip.state is TipState.SUCCEEDED

    def test_duplicate_success_reports_harmless(self):
        cluster = quick_cluster()
        job = cluster.submit_job(job_spec(input_mb=7))
        cluster.run_until_jobs_complete()
        tip = job.tips[0]
        report = synthetic_report(
            "node00",
            [
                AttemptStatus(
                    attempt_id=tip.attempt_ids[-1],
                    tip_id=tip.tip_id,
                    job_id=job.job_id,
                    state=AttemptState.SUCCEEDED,
                    progress=1.0,
                )
            ],
        )
        cluster.jobtracker.heartbeat(report)  # active_attempt_id is None
        assert tip.state is TipState.SUCCEEDED

    def test_zero_free_slots_no_launches(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec())
        response = cluster.jobtracker.heartbeat(
            synthetic_report("node00", [], free_map=0)
        )
        assert response.actions == []

    def test_free_slots_trigger_setup_launch(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec())
        response = cluster.jobtracker.heartbeat(
            synthetic_report("node00", [], free_map=1)
        )
        assert len(response.actions) == 1
        assert "setup" in response.actions[0].describe()


class TestSuspendedStatusBookkeeping:
    def test_suspended_report_updates_progress(self):
        cluster = quick_cluster()
        job = cluster.submit_job(job_spec())
        cluster.start()
        tip = job.tips[0]
        cluster.when_job_progress(
            "job", 0.3, lambda: cluster.jobtracker.suspend_task(tip.tip_id)
        )
        cluster.sim.run(until=10.0)
        assert tip.state is TipState.SUSPENDED
        # The directive rides the next heartbeat, so the task runs a
        # little past the trigger point before the stop lands.
        assert 0.3 <= tip.progress <= 0.55

    def test_report_carries_memory_fields(self):
        """A report carries the node's suspended total: nothing while
        the task runs, its whole image once it is stopped."""
        cluster = quick_cluster()
        job = cluster.submit_job(job_spec())
        cluster.start()
        cluster.sim.run(until=6.0)
        tip = job.tips[0]
        assert tip.state is TipState.RUNNING
        tracker = cluster.trackers[tip.tracker]
        assert tracker.build_report().suspended_bytes == 0
        cluster.jobtracker.suspend_task(tip.tip_id)
        while tip.state is not TipState.SUSPENDED:
            assert cluster.sim.step()
        (attempt,) = tracker.suspended_attempts()
        image = attempt.resident_bytes() + attempt.current_swapped_bytes()
        assert image > 0
        assert tracker.build_report().suspended_bytes == image
