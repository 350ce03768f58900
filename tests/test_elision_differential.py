"""Heartbeat elision differential suite.

A TaskTracker schedules its ``tt.actions`` delivery only when the
heartbeat response carries a directive, and a tracker with nothing to
report gets an idle answer -- no report, no JobTracker walk -- when
the JobTracker has nothing it could offer.  The old heartbeat (kept
verbatim in :mod:`tests.legacy_heartbeat`) built a report, walked and
delivered every response, empty ones included.  For every experiment
family the two must agree on the science, exactly:

* the science digest (every domain record, bit for bit);
* job submit and completion times, job by job;
* the wasted-work ledgers (task-seconds and network bytes, entry by
  entry);
* the study's result, metric sketch included, except the ``events``
  count and its sketch counter.

And on the engine's own records: the legacy run's fired events minus
its empty deliveries are the new run's fired events, record for record.

Why it holds: an empty delivery's callback iterates an empty list, so
it changes no state; the engine fires in ``(time, seq)`` order, where
removing events never swaps two others; and an idle answer fires at
the same instant as the walk it replaces, whose result was empty.
"""

import pytest

from repro.experiments.faults_study import _run_once as faults_run_once
from repro.experiments.memscale_study import (
    RESERVE_BYTES,
    SWAP_BYTES,
)
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.experiments.shuffle_study import _run_once as shuffle_run_once
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.tasktracker import TaskTracker
from tests.legacy_heartbeat import legacy_heartbeat


class Run:
    """One traced run: its result and every cluster it built."""

    def __init__(self, result, clusters, empty_deliveries):
        self.result = result
        self.clusters = clusters
        #: ids of the engine records of empty deliveries (legacy only)
        self.empty_deliveries = empty_deliveries

    def engine_records(self, cluster):
        return [rec for rec in cluster.sim.trace_log
                if rec.engine and id(rec) not in self.empty_deliveries]


def traced_run(monkeypatch, fn, legacy):
    """``fn()`` with every cluster's trace log on; ``legacy`` installs
    the old heartbeat and notes each empty delivery as it fires."""
    clusters = []
    empty = set()
    build = HadoopCluster.__init__
    execute = TaskTracker._execute_actions

    def build_traced(self, *args, **kwargs):
        kwargs["trace"] = True
        build(self, *args, **kwargs)
        clusters.append(self)

    def noting_execute(self, actions):
        if not actions:
            # The engine recorded this delivery just before calling it.
            delivery = self.sim.trace_log.last("tt.actions:")
            assert delivery.engine and delivery.time == self.sim.now
            empty.add(id(delivery))
        execute(self, actions)

    with monkeypatch.context() as patch:
        patch.setattr(HadoopCluster, "__init__", build_traced)
        if legacy:
            patch.setattr(TaskTracker, "_heartbeat", legacy_heartbeat)
            patch.setattr(TaskTracker, "_execute_actions", noting_execute)
        result = fn()
    return Run(result, clusters, empty)


def without_events(result):
    """A study result minus the engine's bookkeeping: the event count,
    its sketch counter and the engine digest (a two-job result keeps
    its cluster, compared through the clusters instead)."""
    if not isinstance(result, dict):
        return {key: value for key, value in vars(result).items()
                if key != "trace_cluster"}
    science = {key: value for key, value in result.items()
               if key not in ("events", "trace_digest")}
    if "sketch" in science:
        science["sketch"] = {name: metric
                             for name, metric in science["sketch"].items()
                             if not name.endswith("/events")}
    return science


def jobs(cluster):
    return {job.job_id: (job.submit_time, job.finish_time)
            for job in cluster.jobtracker.jobs.values()}


def assert_elision_equivalent(monkeypatch, fn):
    old = traced_run(monkeypatch, fn, legacy=True)
    new = traced_run(monkeypatch, fn, legacy=False)
    assert without_events(new.result) == without_events(old.result)
    assert len(new.clusters) == len(old.clusters) >= 1
    elided = 0
    for was, now in zip(old.clusters, new.clusters):
        old_log, new_log = was.sim.trace_log, now.sim.trace_log
        assert new_log.science_digest() == old_log.science_digest()
        assert jobs(now) == jobs(was)
        assert now.jobtracker.wasted.entries() == was.jobtracker.wasted.entries()
        assert (now.jobtracker.wasted.network_entries()
                == was.jobtracker.wasted.network_entries())
        assert new.engine_records(now) == old.engine_records(was)
        elided += was.sim.events_fired - now.sim.events_fired
    # The saving is exactly the empty deliveries, and there were some.
    assert elided == len(old.empty_deliveries) > 0


SCALE_SCENARIOS = ["steady", "shuffle-heavy", "baseline"]


@pytest.mark.parametrize("scenario", SCALE_SCENARIOS)
def test_scale_cell(monkeypatch, scenario):
    seed = derive_seed(9000, "scale", scenario, 15, "suspend", 0)
    assert_elision_equivalent(monkeypatch, lambda: scale_run_once(
        scenario=scenario, primitive_name="suspend", trackers=15,
        num_jobs=10, seed=seed, trace=True, heartbeat_phases=4,
    ))


def test_scale_cell_drifting_heartbeats(monkeypatch):
    """No phase grid: out-of-band heartbeats shift every tracker's
    phase, so deliveries and heartbeats interleave freely."""
    seed = derive_seed(9000, "scale", "baseline", 15, "kill", 0)
    assert_elision_equivalent(monkeypatch, lambda: scale_run_once(
        scenario="baseline", primitive_name="kill", trackers=15,
        num_jobs=10, seed=seed, trace=True,
    ))


def test_shuffle_cell(monkeypatch):
    seed = derive_seed(11000, "shuffle", 15, "kill", 2.5, 0.0, 0)
    assert_elision_equivalent(monkeypatch, lambda: shuffle_run_once(
        primitive_name="kill", trackers=15, num_jobs=8,
        oversubscription=2.5, seed=seed, trace=True, heartbeat_phases=4,
    ))


@pytest.mark.parametrize(
    "mode", ["kill", "wait", "suspend-gated", "suspend-ungated"]
)
def test_memscale_cell(monkeypatch, mode):
    seed = derive_seed(
        12000, "memscale", 15, mode, SWAP_BYTES, RESERVE_BYTES, 0
    )
    assert_elision_equivalent(monkeypatch, lambda: memscale_run_once(
        mode=mode, trackers=15, num_jobs=8, seed=seed, trace=True,
        heartbeat_phases=4,
    ))


@pytest.mark.parametrize("primitive", ["suspend", "kill"])
def test_fig2_cell(monkeypatch, primitive):
    from repro.experiments.harness import TwoJobHarness

    harness = TwoJobHarness(primitive, 0.5, runs=1, keep_traces=True)
    assert_elision_equivalent(monkeypatch, lambda: harness.run_once(seed=99))


def test_faults_cell(monkeypatch):
    """A node crash while directives are on the wire: a dead daemon
    drops its deliveries, empty or not."""
    assert_elision_equivalent(monkeypatch, lambda: faults_run_once(
        scenario="node-crash", primitive_name="suspend", seed=7000,
    ))
