"""Swap-aware suspend admission control.

Three layers of coverage:

* unit tests of :class:`~repro.preemption.admission.SuspendAdmissionGate`
  decisions and the fallback ladder;
* the OOM-kill path the gate exists to prevent: when admission is off
  and RAM + swap exhaust, the OOM killer reaps the allocating JVM and
  the loss lands on the ``oom-kill`` ledger cause;
* the differential guarantee: suspend-gated scheduling with
  effectively infinite swap is **event-for-event identical**
  (``TraceLog.digest()``) to ungated scheduling, across seeded
  fig2/hfsp/scale cells.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.states import TipState
from repro.osmodel.process import ExitReason
from repro.preemption.admission import (
    AdmissionConfig,
    SuspendAdmissionGate,
    admit_and_preempt,
)
from repro.preemption.base import make_primitive
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, MemoryProfile, TaskKind, TaskSpec
from tests.conftest import fast_hadoop_config, small_node_config


def _cluster_with_running_task(
    footprint=256 * MB, swap_bytes=2 * GB, name="victim"
) -> HadoopCluster:
    """A one-node cluster whose single task is mid-flight with its
    footprint resident."""
    cluster = HadoopCluster(
        num_nodes=1,
        node_config=small_node_config(swap_bytes=swap_bytes),
        hadoop_config=fast_hadoop_config(),
        seed=5,
        trace=True,
    )
    cluster.submit_job(
        JobSpec(
            name=name,
            tasks=[
                TaskSpec(
                    kind=TaskKind.MAP,
                    input_bytes=64 * MB,
                    parse_rate=4 * MB,
                    footprint_bytes=footprint,
                    profile=MemoryProfile.STATEFUL,
                    name=name,
                )
            ],
        )
    )
    hit = {"done": False}
    cluster.when_job_progress(name, 0.3, lambda: hit.__setitem__("done", True))
    cluster.start()
    while not hit["done"]:
        assert cluster.sim.step()
    return cluster


def _tip_of(cluster, name):
    return cluster.job_by_name(name).tips[0]


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(reserve_bytes=-1)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(fallback=())
        with pytest.raises(ConfigurationError):
            AdmissionConfig(fallback=("suspend",))
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_suspended_per_node=-2)
        AdmissionConfig(fallback=("wait", "kill"))  # legal ladder


class TestGateDecisions:
    def test_admits_with_abundant_headroom(self):
        cluster = _cluster_with_running_task()
        gate = SuspendAdmissionGate(cluster, AdmissionConfig())
        decision = gate.evaluate(_tip_of(cluster, "victim"))
        assert decision.admitted and decision.action == "suspend"
        assert gate.stats.admitted == 1 and gate.stats.denied == 0

    def test_denies_victim_larger_than_swap_device(self):
        # 256 MB resident victim, 64 MB swap: permanently inadmissible.
        cluster = _cluster_with_running_task(swap_bytes=64 * MB)
        gate = SuspendAdmissionGate(cluster, AdmissionConfig())
        decision = gate.evaluate(_tip_of(cluster, "victim"))
        assert not decision.admitted
        assert decision.permanent
        assert decision.action == "wait"  # default ladder
        assert gate.stats.deny_reasons == {"victim-exceeds-swap": 1}

    def test_denies_when_reserve_exceeds_supply(self):
        cluster = _cluster_with_running_task()
        gate = SuspendAdmissionGate(
            cluster, AdmissionConfig(reserve_bytes=64 * GB)
        )
        decision = gate.evaluate(_tip_of(cluster, "victim"))
        assert not decision.admitted and not decision.permanent
        assert decision.action == "wait"
        assert "no-headroom" in gate.stats.deny_reasons

    def test_count_cap_denies(self):
        cluster = _cluster_with_running_task()
        gate = SuspendAdmissionGate(
            cluster, AdmissionConfig(max_suspended_per_node=0)
        )
        decision = gate.evaluate(_tip_of(cluster, "victim"))
        assert not decision.admitted
        assert "count-cap" in gate.stats.deny_reasons


class TestFallbackLadder:
    def test_permanent_denial_with_kill_ladder_kills(self):
        cluster = _cluster_with_running_task(swap_bytes=64 * MB)
        gate = SuspendAdmissionGate(
            cluster, AdmissionConfig(fallback=("wait", "kill"))
        )
        primitive = make_primitive(
            "suspend", cluster, enforce_swap_capacity=False
        )
        tip = _tip_of(cluster, "victim")
        action = gate.preempt(primitive, tip)
        # "wait" only covers transient denials; a victim that can never
        # page into this swap device falls through to the kill rung.
        assert action == "kill"
        assert tip.state is TipState.MUST_KILL
        assert gate.stats.fallback_kills == 1

    def test_transient_denial_with_kill_ladder_waits(self):
        cluster = _cluster_with_running_task()
        gate = SuspendAdmissionGate(
            cluster,
            AdmissionConfig(reserve_bytes=64 * GB, fallback=("wait", "kill")),
        )
        primitive = make_primitive(
            "suspend", cluster, enforce_swap_capacity=False
        )
        tip = _tip_of(cluster, "victim")
        assert gate.preempt(primitive, tip) == "wait"
        assert tip.state is TipState.RUNNING
        assert gate.stats.fallback_waits == 1

    def test_admit_and_preempt_without_gate_is_plain_preempt(self):
        cluster = _cluster_with_running_task()
        primitive = make_primitive("suspend", cluster)
        tip = _tip_of(cluster, "victim")
        assert admit_and_preempt(None, primitive, tip) == "suspend"
        assert tip.state is TipState.MUST_SUSPEND

    def test_kill_primitive_bypasses_gate(self):
        cluster = _cluster_with_running_task()
        gate = SuspendAdmissionGate(
            cluster, AdmissionConfig(reserve_bytes=64 * GB)
        )
        primitive = make_primitive("kill", cluster)
        tip = _tip_of(cluster, "victim")
        assert admit_and_preempt(gate, primitive, tip) == "kill"
        assert tip.state is TipState.MUST_KILL
        assert gate.stats.denied == 0  # never consulted


class TestOomKillPath:
    def _oom_cluster(self) -> HadoopCluster:
        # 1 GB node (896 MB usable) with 64 MB swap; the 1.25 GB
        # footprint cannot fit anywhere.
        return HadoopCluster(
            num_nodes=1,
            node_config=small_node_config(swap_bytes=64 * MB),
            hadoop_config=fast_hadoop_config(map_max_attempts=2),
            seed=9,
            trace=True,
        )

    def test_alloc_oom_kills_attempt_and_fails_job(self):
        cluster = self._oom_cluster()
        job = cluster.submit_job(
            JobSpec(
                name="hog",
                tasks=[
                    TaskSpec(
                        kind=TaskKind.MAP,
                        input_bytes=16 * MB,
                        parse_rate=4 * MB,
                        footprint_bytes=int(1.25 * GB),
                        profile=MemoryProfile.STATEFUL,
                        name="hog",
                    )
                ],
            )
        )
        cluster.run_until_jobs_complete(timeout=600.0)
        kernel = cluster.kernel_of("node00")
        assert kernel.oom_kills == 2  # both attempts died allocating
        assert cluster.jobtracker.oom_kills == 2
        assert job.state.value == "FAILED"
        attempts = cluster.attempts_of("hog")
        assert attempts and all(a.oom_killed() for a in attempts)
        assert all(
            a.process.exit_reason is ExitReason.OOM for a in attempts
        )
        # The OOM killer's victims never pollute the generic
        # task-failure cause.
        causes = cluster.jobtracker.wasted.by_cause()
        assert "task-failure" not in causes
        # RAM and swap accounting survived the kills.
        cluster.check_invariants()

    def test_suspend_stacking_oversubscription_ooms(self):
        # The Section III-A failure mode in miniature: a suspended
        # victim's resident set plus an incoming allocation exceed
        # RAM + swap.  Each demand *alone* fits the node; ungated
        # stacking makes them collide and the OOM killer fires.
        cluster = _cluster_with_running_task(
            footprint=300 * MB, swap_bytes=128 * MB
        )
        kernel = cluster.kernel_of("node00")
        tip = _tip_of(cluster, "victim")
        # The gate would have denied this suspension outright: the
        # victim cannot page into a 128 MB device.
        gate = SuspendAdmissionGate(cluster, AdmissionConfig())
        verdict = gate.evaluate(tip)
        assert not verdict.admitted and verdict.permanent
        # ...but ungated scheduling suspends anyway.
        cluster.jobtracker.suspend_task(tip.tip_id)
        while tip.state is not TipState.SUSPENDED:
            assert cluster.sim.step()
        assert kernel.memory_headroom().stopped_resident >= 300 * MB

        cluster.submit_job(
            JobSpec(
                name="hog",
                tasks=[
                    TaskSpec(
                        kind=TaskKind.MAP,
                        input_bytes=64 * MB,
                        parse_rate=4 * MB,
                        footprint_bytes=700 * MB,
                        profile=MemoryProfile.STATEFUL,
                        name="hog",
                    )
                ],
            )
        )
        cluster.run_until_jobs_complete(
            jobs=[cluster.job_by_name("hog")], timeout=600.0
        )
        assert kernel.oom_kills >= 1
        assert cluster.jobtracker.oom_kills >= 1
        # The suspended victim keeps its image through the kill storm.
        assert tip.state is TipState.SUSPENDED
        # Heartbeats carried the suspended total to the JobTracker: the
        # per-node suspended peak reflects the parked victim.
        assert cluster.jobtracker.peak_suspended_bytes >= 300 * MB
        cluster.check_invariants()


class TestGatedUngatedDifferential:
    """Gated scheduling with effectively infinite swap must be
    event-for-event identical to today's ungated behaviour."""

    def test_fig2_cell_trace_identical(self):
        from repro.experiments.harness import TwoJobHarness

        for heavy in (False, True):
            ungated = TwoJobHarness(
                "suspend", 0.5, heavy=heavy, runs=1, keep_traces=True
            ).run_once(seed=77)
            gated = TwoJobHarness(
                "suspend", 0.5, heavy=heavy, runs=1, keep_traces=True,
                admission=AdmissionConfig(),
            ).run_once(seed=77)
            assert (
                gated.trace_cluster.sim.trace_log.digest()
                == ungated.trace_cluster.sim.trace_log.digest()
            )
            assert gated.sojourn_th == ungated.sojourn_th
            assert gated.tl_paged_bytes == ungated.tl_paged_bytes

    def test_hfsp_cell_trace_identical(self):
        from repro.experiments.hfsp_study import _run_once as hfsp_cell

        ungated = hfsp_cell("suspend", 6001, [20.0, 45.0], trace=True)
        gated = hfsp_cell(
            "suspend", 6001, [20.0, 45.0],
            admission=AdmissionConfig(), trace=True,
        )
        assert gated["trace_digest"] == ungated["trace_digest"]
        assert gated == ungated

    @pytest.mark.integration
    def test_scale_cell_trace_identical(self):
        from repro.experiments.scale_study import _run_once as scale_cell

        kwargs = dict(
            scenario="baseline",
            primitive_name="suspend",
            trackers=5,
            num_jobs=8,
            seed=31337,
            trace=True,
        )
        ungated = scale_cell(**kwargs)
        gated = scale_cell(admission=AdmissionConfig(), **kwargs)
        assert gated["trace_digest"] == ungated["trace_digest"]
        assert gated == ungated
