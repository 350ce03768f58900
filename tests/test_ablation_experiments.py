"""Ablation experiments: swappiness, GC policy, advisor-driven mixes."""

import pytest

from repro.experiments.gc_study import run_gc_study
from repro.experiments.swappiness_study import run_swappiness_study
from repro.hadoop.jvm import GcPolicy

pytestmark = [pytest.mark.integration, pytest.mark.slow]


class TestSwappinessAblation:
    def test_zero_swappiness_minimises_paging(self):
        report = run_swappiness_study(runs=2, swappiness_values=[0, 90])
        paged = report.extras["paged_mb"]
        assert paged[0] < paged[1]
        # At swappiness 0 the cache absorbs most of the pressure.
        assert paged[0] < 200

    def test_monotone_in_the_knob(self):
        report = run_swappiness_study(runs=1, swappiness_values=[0, 45, 90])
        paged = report.extras["paged_mb"]
        assert paged[0] <= paged[1] <= paged[2]


class TestGcAblation:
    def test_release_beats_hoard(self):
        report = run_gc_study(runs=2, heap_slack=0.25)
        paged = report.extras["paged_mb"]
        makespans = report.extras["makespans"]
        assert paged["release"] < paged["hoard"]
        assert makespans["release"] < makespans["hoard"]

    def test_zero_slack_equalises(self):
        report = run_gc_study(runs=1, heap_slack=0.0)
        paged = report.extras["paged_mb"]
        assert paged["release"] == pytest.approx(paged["hoard"], rel=0.05)


class TestGcPolicyPlumbing:
    def test_harness_gc_policy_reaches_cluster(self):
        from repro.experiments.harness import TwoJobHarness
        from repro.experiments.params import paper_hadoop_config

        def run(policy):
            return TwoJobHarness(
                "suspend",
                0.5,
                heavy=True,
                hadoop_config=paper_hadoop_config().replace(
                    jvm_heap_slack=0.5
                ),
                gc_policy=policy,
            ).run_once(seed=1)

        hoarding = run(GcPolicy.HOARD)
        releasing = run(GcPolicy.RELEASE)
        assert hoarding.tl_paged_bytes > releasing.tl_paged_bytes
