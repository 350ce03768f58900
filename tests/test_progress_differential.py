"""Reported progress: the one-call evaluation against the old chain.

:meth:`repro.osmodel.work.WorkEngine.progress` evaluates an active
claim's share inline instead of calling down one method per layer.
The old chain is kept in :mod:`tests.legacy_progress`.  Every status
of every report built in the cells below must carry exactly the
oracle's float, bit for bit.

The cells reach every case the progress of an attempt can take:

* a scale replay (running attempts on active claims, suspended ones
  on paused claims, finished ones);
* a memscale suspend-gated cell (shuffle fetches over the fabric, a
  weighted item with no claim);
* the paper's two-job cells, Figure 2 and Figure 3, under suspend and
  kill (SUSPENDED, KILLED and SUCCEEDED attempts, and a resume waiting
  out its page-in);
* the fault study's straggler and transient-failure cells (attempts
  still in the JVM start-up sleep, speculative backups, KILLED and
  FAILED attempts).

The progress an attempt keeps when its engine is aborted (a kill, a
failure) is compared at the abort, because a terminal attempt reports
that stored value.
"""

import struct
from collections import Counter

import pytest

from repro.experiments import faults_study
from repro.experiments.harness import TwoJobHarness
from repro.experiments.memscale_study import (
    RESERVE_BYTES,
    SWAP_BYTES,
)
from repro.experiments.memscale_study import _run_once as memscale_run_once
from repro.experiments.runner import derive_seed
from repro.experiments.scale_study import _run_once as scale_run_once
from repro.hadoop.heartbeat import AttemptStatus
from repro.hadoop.states import AttemptState
from repro.hadoop.tasktracker import TaskTracker
from repro.osmodel.work import WorkEngine
from tests.legacy_progress import legacy_attempt_progress, legacy_engine_progress

_build_report = TaskTracker.build_report
_abort = WorkEngine.abort


def bits(value: float) -> bytes:
    """The IEEE-754 bytes of ``value`` (tells -0.0 from 0.0)."""
    return struct.pack("<d", value)


def case_of(attempt) -> str:
    """Which path the attempt's progress takes."""
    if attempt.state.terminal:
        return attempt.state.value.lower()
    if attempt.jvm is None:
        return "no jvm"
    engine = attempt.jvm.engine
    if engine._aborted_progress is not None:
        return "aborted"
    if engine._pending_resume is not None:
        return "page-in"
    item = engine.current_item
    if item is None:
        return "plan done"
    if item.weight <= 0:
        return "unweighted item"
    if item.claim is None:
        return "no claim"
    return "active claim" if item.claim.active else "paused claim"


def checked_reports(monkeypatch) -> Counter:
    """Wrap ``build_report`` so every status is compared with the
    oracle, and ``WorkEngine.abort`` so the progress a killed or failed
    attempt keeps is too; returns the tally of cases compared."""
    cases = Counter()

    def abort(self):
        expected = None if self.completed else legacy_engine_progress(self)
        _abort(self)
        if expected is not None:
            assert bits(self._aborted_progress) == bits(expected)
            cases["aborted"] += 1

    def build_report(self, out_of_band=False):
        attempts = dict(self._reportable)
        report = _build_report(self, out_of_band)
        for status in report.attempts:
            attempt = attempts[status.attempt_id]
            expected = legacy_attempt_progress(attempt)
            assert bits(status.progress) == bits(expected), (
                status, expected, case_of(attempt))
            cases[case_of(attempt)] += 1
            if attempt.state is AttemptState.SUSPENDED:
                cases["suspended"] += 1
        return report

    monkeypatch.setattr(TaskTracker, "build_report", build_report)
    monkeypatch.setattr(WorkEngine, "abort", abort)
    return cases


def scale_cell():
    seed = derive_seed(9000, "scale", "baseline", 15, "suspend", 0)
    scale_run_once(scenario="baseline", primitive_name="suspend",
                   trackers=15, num_jobs=10, seed=seed, heartbeat_phases=4)


def memscale_cell():
    seed = derive_seed(12000, "memscale", 15, "suspend-gated", SWAP_BYTES,
                       RESERVE_BYTES, 0)
    memscale_run_once(mode="suspend-gated", trackers=15, num_jobs=8,
                      seed=seed, heartbeat_phases=4)


def two_job_cell(primitive, heavy):
    TwoJobHarness(primitive, 0.5, heavy=heavy, runs=1).run_once(seed=99)


def faults_cell(scenario, primitive):
    faults_study._run_once(scenario, primitive, seed=7000)


#: cell -> (runner, the cases it must reach)
CELLS = {
    "scale": (
        scale_cell,
        {"active claim", "paused claim", "unweighted item", "succeeded"},
    ),
    # shuffles ride the fabric: a weighted fetch item has no claim
    "memscale-suspend-gated": (
        memscale_cell,
        {"active claim", "no claim", "paused claim", "suspended"},
    ),
    "fig2-suspend": (
        lambda: two_job_cell("suspend", heavy=False),
        {"active claim", "paused claim", "suspended", "succeeded"},
    ),
    "fig2-kill": (
        lambda: two_job_cell("kill", heavy=False),
        {"active claim", "aborted", "killed", "succeeded"},
    ),
    "fig3-suspend": (
        lambda: two_job_cell("suspend", heavy=True),
        {"paused claim", "suspended", "page-in", "unweighted item"},
    ),
    "fig3-kill": (
        lambda: two_job_cell("kill", heavy=True),
        {"active claim", "aborted", "killed", "unweighted item"},
    ),
    # speculative backups and their killed losers
    "faults-straggler": (
        lambda: faults_cell("straggler", "wait"),
        {"active claim", "unweighted item", "aborted", "killed"},
    ),
    "faults-transient-failure": (
        lambda: faults_cell("transient-failure", "suspend"),
        {"paused claim", "unweighted item", "aborted", "failed"},
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_reported_progress_matches_the_chain(name, monkeypatch):
    run, required = CELLS[name]
    cases = checked_reports(monkeypatch)
    run()
    assert required <= set(cases), sorted(cases)


def test_attempt_status_is_immutable():
    status = AttemptStatus("attempt_1_m_0_0", "task_1_m_0", "0001",
                           AttemptState.RUNNING, 0.5)
    assert (status.discarded_network_bytes, status.oom_killed) == (0, False)
    with pytest.raises(AttributeError):
        status.progress = 1.0
