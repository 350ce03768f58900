"""Schedulers: FIFO, dummy, fair, HFSP."""

from repro.hadoop.states import TipState
from repro.preemption.base import make_primitive
from repro.schedulers.dummy import DummyScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.hfsp import HfspScheduler
from repro.units import MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import quick_cluster


def job_spec(name, input_mb=35, tasks=1, priority=0, user="default"):
    return JobSpec(
        name=name,
        priority=priority,
        user=user,
        tasks=[
            TaskSpec(input_bytes=input_mb * MB, parse_rate=7 * MB, output_bytes=0)
            for _ in range(tasks)
        ],
    )


class TestFifo:
    def test_priority_order(self):
        cluster = quick_cluster(scheduler=FifoScheduler(), map_slots=1)
        low = cluster.submit_job(job_spec("low", priority=0))
        high = cluster.submit_job(job_spec("high", priority=5))
        cluster.run_until_jobs_complete()
        assert high.tips[0].first_launched_at < low.tips[0].first_launched_at

    def test_submit_order_breaks_ties(self):
        cluster = quick_cluster(scheduler=FifoScheduler(), map_slots=1)
        first = cluster.submit_job(job_spec("first"))
        cluster.start()
        cluster.sim.run(until=0.02)
        second = cluster.submit_job(job_spec("second"))
        cluster.run_until_jobs_complete()
        assert first.tips[0].first_launched_at <= second.tips[0].first_launched_at


class TestDummy:
    def test_allowlist_blocks_unlisted_jobs(self):
        scheduler = DummyScheduler(allowlist={"allowed"})
        cluster = quick_cluster(scheduler=scheduler)
        blocked = cluster.submit_job(job_spec("blocked"))
        allowed = cluster.submit_job(job_spec("allowed"))
        cluster.start()
        cluster.sim.run(until=15.0)
        assert allowed.tips[0].state is not TipState.UNASSIGNED
        assert blocked.tips[0].state is TipState.UNASSIGNED

    def test_freeze_unfreeze(self):
        scheduler = DummyScheduler()
        cluster = quick_cluster(scheduler=scheduler)
        scheduler.freeze("job")
        job = cluster.submit_job(job_spec("job", input_mb=7))
        cluster.start()
        cluster.sim.run(until=5.0)
        assert job.tips[0].state is TipState.UNASSIGNED
        scheduler.unfreeze("job")
        cluster.run_until_jobs_complete()
        assert job.tips[0].state is TipState.SUCCEEDED

    def test_allow_extends_allowlist(self):
        scheduler = DummyScheduler(allowlist=set())
        scheduler.allow("newjob")
        assert "newjob" in scheduler.allowlist


class TestFair:
    def test_fair_share_split(self):
        scheduler = FairScheduler()
        cluster = quick_cluster(scheduler=scheduler, map_slots=2)
        scheduler.attach_cluster(cluster)
        cluster.submit_job(job_spec("a1", tasks=4, user="alice"))
        cluster.submit_job(job_spec("b1", tasks=4, user="bob"))
        cluster.start()
        cluster.sim.run(until=8.0)
        running_by_user = {"alice": 0, "bob": 0}
        for job in cluster.jobtracker.jobs.values():
            for tip in job.tips:
                if tip.state is TipState.RUNNING:
                    running_by_user[job.spec.user] += 1
        # Two slots, two pools with demand -> one each.
        assert running_by_user == {"alice": 1, "bob": 1}

    def test_preemption_for_starved_pool(self):
        scheduler = FairScheduler(
            primitive_factory=lambda c: make_primitive("suspend", c),
            preemption_timeout=2.0,
            check_interval=1.0,
        )
        cluster = quick_cluster(scheduler=scheduler, map_slots=2)
        scheduler.attach_cluster(cluster)
        # Alice grabs both slots with long tasks...
        alice = cluster.submit_job(job_spec("a1", tasks=2, input_mb=350, user="alice"))
        cluster.start()
        cluster.sim.run(until=6.0)
        # ...then Bob arrives and starves.
        bob = cluster.submit_job(job_spec("b1", tasks=1, input_mb=14, user="bob"))
        cluster.sim.run(until=30.0)
        assert scheduler.preemptions >= 1
        assert bob.tips[0].state in (TipState.RUNNING, TipState.SUCCEEDED)

    def test_no_preemption_without_primitive(self):
        scheduler = FairScheduler()
        cluster = quick_cluster(scheduler=scheduler, map_slots=1)
        scheduler.attach_cluster(cluster)
        cluster.submit_job(job_spec("a1", user="alice", input_mb=70))
        cluster.start()
        cluster.sim.run(until=4.0)
        cluster.submit_job(job_spec("b1", user="bob", input_mb=7))
        cluster.sim.run(until=12.0)
        assert scheduler.preemptions == 0


class TestHfsp:
    def test_smallest_job_first(self):
        scheduler = HfspScheduler()
        cluster = quick_cluster(scheduler=scheduler, map_slots=1)
        scheduler.attach_cluster(cluster)
        big = cluster.submit_job(job_spec("big", input_mb=140))
        small = cluster.submit_job(job_spec("small", input_mb=14))
        cluster.run_until_jobs_complete()
        assert small.tips[0].first_launched_at < big.tips[0].first_launched_at

    def test_preempt_on_smaller_arrival(self):
        scheduler = HfspScheduler(
            primitive_factory=lambda c: make_primitive("suspend", c)
        )
        cluster = quick_cluster(scheduler=scheduler, map_slots=1)
        scheduler.attach_cluster(cluster)
        big = cluster.submit_job(job_spec("big", input_mb=350))
        cluster.start()
        cluster.sim.run(until=6.0)
        small = cluster.submit_job(job_spec("small", input_mb=14))
        cluster.run_until_jobs_complete(timeout=7200)
        assert scheduler.preemptions >= 1
        # The small job finished long before the big one.
        assert small.finish_time < big.finish_time
        assert big.state.value == "SUCCEEDED"

    def test_remaining_size_decreases_with_progress(self):
        scheduler = HfspScheduler()
        cluster = quick_cluster(scheduler=scheduler)
        job = cluster.submit_job(job_spec("j", input_mb=70))
        size_before = scheduler.remaining_size(job)
        cluster.start()
        cluster.sim.run(until=6.0)
        job.tips[0].progress = 0.5
        assert scheduler.remaining_size(job) < size_before
