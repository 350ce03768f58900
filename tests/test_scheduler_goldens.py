"""Seeded golden cells for every preempting scheduler.

Each cell runs one small preemption scenario to completion with the
trace log on and pins the whole-run trace digest, the scheduler's
``preemptions`` count and every job's finish time.  The preemption
mechanism the schedulers share (primitive wiring, the victim loop, the
suspended-tip ledger) may be restructured freely; these cells say that
no trace byte moves while it is.
"""

import pytest

from repro.hadoop.states import TipState
from repro.preemption.admission import AdmissionConfig
from repro.preemption.base import make_primitive
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.deadline import DeadlineScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.hfsp import HfspScheduler
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import quick_cluster


def job_spec(name, input_mb, tasks=1, user="default", deadline=None):
    return JobSpec(
        name=name,
        user=user,
        deadline_seconds=deadline,
        tasks=[
            TaskSpec(input_bytes=input_mb * MB, parse_rate=7 * MB, output_bytes=0)
            for _ in range(tasks)
        ],
    )


def factory(primitive):
    return lambda cluster: make_primitive(primitive, cluster)


def fair(primitive):
    """A pool grabs both slots; a second pool arrives and starves."""
    scheduler = FairScheduler(
        primitive_factory=factory(primitive),
        preemption_timeout=2.0,
        check_interval=1.0,
    )
    first = job_spec("a1", 350, tasks=2, user="alice")
    late = job_spec("b1", 14, user="bob")
    return scheduler, first, late


def capacity(primitive):
    """``dev`` borrows ``prod``'s idle slot; ``prod`` then wants it back."""
    scheduler = CapacityScheduler(
        queue_capacity={"prod": 0.5, "dev": 0.5},
        default_queue="dev",
        primitive_factory=factory(primitive),
        reclaim_interval=2.0,
    )
    first = job_spec("d1", 350, tasks=2, user="dev")
    late = job_spec("p1", 14, user="prod")
    return scheduler, first, late


def deadline(primitive):
    """A background job holds the only slot when a deadline job lands."""
    scheduler = DeadlineScheduler(
        primitive_factory=factory(primitive),
        check_interval=1.0,
        slack_margin=5.0,
    )
    first = job_spec("bg", 350)
    late = job_spec("urgent", 14, deadline=15.0)
    return scheduler, first, late


def hfsp(primitive, admission_config=None):
    """A small job arrives behind a big one on the only slot."""
    scheduler = HfspScheduler(
        primitive_factory=factory(primitive), admission_config=admission_config
    )
    return scheduler, job_spec("big", 350), job_spec("small", 14)


def run_cell(scheduler, first, late, map_slots):
    cluster = quick_cluster(scheduler=scheduler, map_slots=map_slots)
    scheduler.attach_cluster(cluster)
    jobs = [cluster.submit_job(first)]
    cluster.start()
    cluster.sim.run(until=6.0)
    jobs.append(cluster.submit_job(late))
    cluster.run_until_jobs_complete(timeout=3000)
    return cluster, jobs


CELLS = {
    "fair-suspend": (lambda: fair("suspend"), 2),
    "fair-kill": (lambda: fair("kill"), 2),
    "capacity-kill": (lambda: capacity("kill"), 2),
    "deadline-suspend": (lambda: deadline("suspend"), 1),
    "hfsp-suspend": (lambda: hfsp("suspend"), 1),
    "hfsp-suspend-gated": (lambda: hfsp("suspend", AdmissionConfig()), 1),
    # Every suspension is denied into waiting: neither counted nor tracked.
    "hfsp-suspend-gated-wait": (
        lambda: hfsp("suspend", AdmissionConfig(reserve_bytes=64 * GB)),
        1,
    ),
}

#: cell -> (trace digest, the primitive's preempt count, the
#: scheduler's ``preemptions``, finish time of each job).  Capacity
#: cells pin only the primitive's count.
GOLDENS = {
    "capacity-kill": (
        "aec4e69ab73f21e3fdcf94b69f2872b8325256f1dafb43d8c9c2c86778ed036b",
        1, None, (63.42999999999999, 12.556666666666668),
    ),
    "deadline-suspend": (
        "6ea60df763012150b57b6a864b4c96a0acebd09cc2baa1566dca23e62f00a8ca",
        1, 1, (55.93, 19.206666666666674),
    ),
    "fair-kill": (
        "6117f47e7001d093780255d40b278e44dfb2f337569f42500bd0064ca0ce9e7f",
        1, 1, (64.42999999999999, 13.556666666666668),
    ),
    "fair-suspend": (
        "27b0907b58f084f730abe927b507941c1fad90d2352547f5b35f4595e3ce946f",
        1, 1, (54.92999999999999, 13.206666666666669),
    ),
    "hfsp-suspend": (
        "df0d2b85ce06987c90adbd6337b80473bab1e3861b7848e3b73d81c78073b037",
        1, 1, (54.92999999999999, 10.206666666666669),
    ),
    "hfsp-suspend-gated": (
        "df0d2b85ce06987c90adbd6337b80473bab1e3861b7848e3b73d81c78073b037",
        1, 1, (54.92999999999999, 10.206666666666669),
    ),
    "hfsp-suspend-gated-wait": (
        "996f407e2570fad3713c13f586fa225b68cd82127060f9201c81bb791a913f66",
        0, 0, (51.45999999999999, 54.86999999999997),
    ),
}


def observe(name, cluster, jobs):
    scheduler = cluster.scheduler
    return (
        cluster.sim.trace_log.digest(),
        scheduler.primitive.preempt_count,
        None if name.startswith("capacity") else scheduler.preemptions,
        tuple(job.finish_time for job in jobs),
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_scheduler_golden(name):
    build, map_slots = CELLS[name]
    cluster, jobs = run_cell(*build(), map_slots=map_slots)
    assert observe(name, cluster, jobs) == GOLDENS[name]


def test_capacity_resumes_what_it_suspends():
    """A reclaimed ``dev`` task that was suspended comes back: both
    jobs succeed and no tip is left suspended."""
    cluster, jobs = run_cell(*capacity("suspend"), map_slots=2)
    scheduler = cluster.scheduler
    assert scheduler.preemptions == scheduler.primitive.preempt_count >= 1
    assert [job.state.value for job in jobs] == ["SUCCEEDED", "SUCCEEDED"]
    assert not any(
        tip.state is TipState.SUSPENDED for job in jobs for tip in job.tips
    )


def test_capacity_resumes_into_an_idle_slot():
    """Once ``prod`` is done its slot sits idle and no under-quota
    queue waits for it, so the first reclaim check after the job ends
    hands it back to the suspended ``dev`` task, and ``dev`` finishes
    before it does under kill."""
    cluster, (dev, prod) = run_cell(*capacity("suspend"), map_slots=2)
    trace = cluster.sim.trace_log
    interval = cluster.scheduler.reclaim_interval
    prod_done = trace.first("jt.job-done", name="p1").time
    first_check_after = (prod_done // interval + 1) * interval
    assert first_check_after == 14.0
    assert [rec.time for rec in trace.find("preempt.resume")] == [14.0]
    assert dev.finish_time < GOLDENS["capacity-kill"][3][0]
