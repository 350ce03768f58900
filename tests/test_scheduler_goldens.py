"""Seeded golden cells for every preempting scheduler.

Each cell runs one small preemption scenario to completion with the
trace log on and pins the whole-run trace digest, the scheduler's
``preemptions`` count and every job's finish time.  The preemption
mechanism the schedulers share (primitive wiring, the victim loop, the
suspended-tip ledger) may be restructured freely; these cells say that
no trace byte moves while it is.
"""

import pytest

from repro.preemption.admission import AdmissionConfig
from repro.preemption.base import make_primitive
from repro.schedulers.fair import FairScheduler
from repro.schedulers.hfsp import HfspScheduler
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, TaskSpec
from tests.conftest import quick_cluster


def job_spec(name, input_mb, tasks=1, user="default"):
    return JobSpec(
        name=name,
        user=user,
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
    "hfsp-suspend": (lambda: hfsp("suspend"), 1),
    "hfsp-suspend-gated": (lambda: hfsp("suspend", AdmissionConfig()), 1),
    # Every suspension is denied into waiting: neither counted nor tracked.
    "hfsp-suspend-gated-wait": (
        lambda: hfsp("suspend", AdmissionConfig(reserve_bytes=64 * GB)),
        1,
    ),
}

#: cell -> (trace digest, the primitive's preempt count, the
#: scheduler's ``preemptions``, finish time of each job).
GOLDENS = {
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


def observe(cluster, jobs):
    scheduler = cluster.scheduler
    return (
        cluster.sim.trace_log.digest(),
        scheduler.primitive.preempt_count,
        scheduler.preemptions,
        tuple(job.finish_time for job in jobs),
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_scheduler_golden(name):
    build, map_slots = CELLS[name]
    cluster, jobs = run_cell(*build(), map_slots=map_slots)
    assert observe(cluster, jobs) == GOLDENS[name]

