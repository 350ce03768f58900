"""Cluster facade helpers and a preemption-storm property test."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.job import JobState
from repro.hadoop.states import TipState
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import fast_hadoop_config, quick_cluster, small_node_config


def job_spec(name="job", input_mb=70):
    return JobSpec(
        name=name,
        tasks=[TaskSpec(input_bytes=input_mb * MB, parse_rate=7 * MB,
                        output_bytes=0)],
    )


class TestClusterConstruction:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            HadoopCluster(num_nodes=0)

    def test_needs_at_least_one_rack(self):
        with pytest.raises(ConfigurationError):
            HadoopCluster(num_nodes=1, racks=0)

    def test_hostnames_and_racks(self):
        cluster = HadoopCluster(
            num_nodes=4,
            racks=2,
            node_config=small_node_config(),
            hadoop_config=fast_hadoop_config(),
        )
        assert sorted(cluster.kernels) == ["node00", "node01", "node02", "node03"]
        racks = {cluster.topology.rack_of(h) for h in cluster.kernels}
        assert racks == {"/rack0", "/rack1"}

    def test_kernel_of_unknown_host(self):
        cluster = quick_cluster()
        with pytest.raises(ConfigurationError):
            cluster.kernel_of("nope")

    def test_start_idempotent(self):
        cluster = quick_cluster()
        cluster.start()
        hb = cluster.sim.pending_events
        cluster.start()
        assert cluster.sim.pending_events == hb


class TestLookupHelpers:
    def test_find_live_attempt_none_before_launch(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec())
        assert cluster.find_live_attempt("job") is None
        assert cluster.find_live_attempt("ghost") is None

    def test_find_live_attempt_after_launch(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec())
        cluster.start()
        cluster.sim.run(until=6.0)
        attempt = cluster.find_live_attempt("job")
        assert attempt is not None
        assert attempt.role.value == "task"

    def test_attempts_of_excludes_aux_by_default(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec(input_mb=7))
        cluster.run_until_jobs_complete()
        work_only = cluster.attempts_of("job")
        with_aux = cluster.attempts_of("job", include_aux=True)
        assert len(work_only) == 1
        assert len(with_aux) == 3  # setup + work + cleanup

    def test_when_job_progress_before_submission(self):
        cluster = quick_cluster()
        hits = []
        cluster.when_job_progress("late", 0.5, lambda: hits.append(cluster.sim.now))
        cluster.start()
        cluster.sim.run(until=2.0)
        cluster.jobtracker.submit_job(job_spec("late", input_mb=14))
        cluster.run_until_jobs_complete()
        assert len(hits) == 1

    def test_run_until_jobs_complete_timeout(self):
        cluster = quick_cluster(scheduler=None)
        # A job that can never run: freeze it via an allowlist scheduler.
        from repro.schedulers.dummy import DummyScheduler

        cluster2 = quick_cluster(scheduler=DummyScheduler(allowlist=set()))
        cluster2.submit_job(job_spec())
        with pytest.raises(ConfigurationError):
            cluster2.run_until_jobs_complete(timeout=30.0)

    def test_run_until_jobs_complete_waits_for_deferred_submission(self):
        # The early job drains long before the late one is submitted:
        # a deferred submission still on the heap keeps the loop going.
        cluster = quick_cluster()
        cluster.submit_job(job_spec("early", input_mb=7))
        cluster.submit_job(job_spec("late", input_mb=7), delay=600.0)
        cluster.run_until_jobs_complete()
        for name in ("early", "late"):
            assert cluster.job_by_name(name).state is JobState.SUCCEEDED
        assert cluster.job_by_name("late").submit_time == 600.0


class TestWhenJobProgress:
    """``when_job_progress`` arms an exact progress crossing on the
    watched job's first work attempt."""

    def test_fires_at_exact_progress(self):
        cluster = quick_cluster()
        fired_at = []
        cluster.when_job_progress(
            "watched", 0.5, lambda: fired_at.append(cluster.sim.now)
        )
        job = cluster.submit_job(job_spec("watched"))
        cluster.run_until_jobs_complete()
        assert len(fired_at) == 1
        # 70 MB at 7 MB/s: 50% of the map is 5 s in; plus jvm/setup
        # preamble the crossing lands shortly after launch + 5 s.
        launch = job.tips[0].first_launched_at
        assert fired_at[0] == pytest.approx(launch + 5.0, abs=1.5)

    def test_fires_once(self):
        cluster = quick_cluster()
        count = []
        cluster.when_job_progress("watched", 0.2, lambda: count.append(1))
        cluster.submit_job(job_spec("watched"))
        cluster.run_until_jobs_complete()
        assert count == [1]

    def test_armed_after_attempt_running(self):
        cluster = quick_cluster()
        cluster.submit_job(job_spec("low"))
        cluster.start()
        cluster.sim.run(until=5.0)  # attempt already running
        fired = []
        cluster.when_job_progress("low", 0.8, lambda: fired.append(1))
        cluster.run_until_jobs_complete()
        assert fired == [1]

    def test_ignores_setup_attempts(self):
        # The watch must arm on the work attempt, not the setup task.
        cluster = quick_cluster()
        seen_progress = []
        cluster.when_job_progress(
            "watched",
            0.5,
            lambda: seen_progress.append(
                cluster.job_by_name("watched").tips[0].progress
            ),
        )
        cluster.submit_job(job_spec("watched"))
        cluster.run_until_jobs_complete()
        assert len(seen_progress) == 1
        assert seen_progress[0] > 0

    def test_submit_and_suspend(self):
        # At 40% of "low", submit "high" and suspend "low".
        cluster = quick_cluster()
        jt = cluster.jobtracker
        low = cluster.submit_job(job_spec("low"))

        def preempt():
            jt.submit_job(job_spec("high", input_mb=14))
            jt.suspend_task(low.tips[0].tip_id)

        cluster.when_job_progress("low", 0.4, preempt)
        cluster.start()
        cluster.sim.run(until=15.0)
        assert low.tips[0].state is TipState.SUSPENDED
        assert cluster.job_by_name("high") is not None

    def test_kill_at_progress(self):
        # Killing "low" at 40% reruns its task from scratch.
        cluster = quick_cluster()
        jt = cluster.jobtracker
        low = cluster.submit_job(job_spec("low"))
        cluster.when_job_progress(
            "low", 0.4, lambda: jt.kill_task(low.tips[0].tip_id)
        )
        cluster.run_until_jobs_complete(timeout=7200)
        assert low.tips[0].state is TipState.SUCCEEDED
        assert low.tips[0].next_attempt_number == 2  # killed then rerun

    def test_resume_on_job_complete(self):
        # The paper's dummy-scheduler script: at 40% of "low", submit
        # "high" and suspend "low"; resume "low" when "high" completes.
        cluster = quick_cluster()
        jt = cluster.jobtracker
        low = cluster.submit_job(job_spec("low"))

        def preempt():
            jt.submit_job(job_spec("high", input_mb=14))
            jt.suspend_task(low.tips[0].tip_id)

        cluster.when_job_progress("low", 0.4, preempt)
        jt.on_job_complete(
            lambda job: jt.resume_task(low.tips[0].tip_id)
            if job.spec.name == "high"
            else None
        )
        cluster.run_until_jobs_complete(timeout=7200)
        assert low.tips[0].state is TipState.SUCCEEDED
        assert sum(a.resume_count for a in cluster.attempts_of("low")) == 1


class TestPreemptionStorm:
    """Random suspend/resume/kill storms must never wedge the cluster."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.sampled_from(["suspend", "resume", "kill", "noop"]),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_storm_always_completes(self, actions, seed):
        cluster = quick_cluster(seed=seed)
        job = cluster.submit_job(job_spec(input_mb=35))
        tip = job.tips[0]

        def act(index: int) -> None:
            if index >= len(actions):
                return
            action = actions[index]
            try:
                if action == "suspend" and tip.state is TipState.RUNNING:
                    cluster.jobtracker.suspend_task(tip.tip_id)
                elif action == "resume" and tip.state is TipState.SUSPENDED:
                    cluster.jobtracker.resume_task(tip.tip_id)
                elif action == "kill" and tip.state in (
                    TipState.RUNNING,
                    TipState.SUSPENDED,
                ):
                    cluster.jobtracker.kill_task(tip.tip_id)
            finally:
                cluster.sim.schedule(2.0, act, index + 1)

        cluster.sim.schedule(4.0, act, 0)

        # Un-wedge rule: anything left suspended at the end is resumed.
        def janitor():
            if tip.state is TipState.SUSPENDED:
                cluster.jobtracker.resume_task(tip.tip_id)
            if not tip.state.terminal:
                cluster.sim.schedule(5.0, janitor)

        cluster.sim.schedule(4.0 + 2.0 * len(actions) + 1.0, janitor)
        cluster.run_until_jobs_complete(timeout=3600.0)
        assert tip.state is TipState.SUCCEEDED
        cluster.check_invariants()
