"""The cluster-at-scale SWIM replay experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scale_study import (
    SCENARIOS,
    _run_once,
    metrics_digest,
    run_scale_study,
)


class TestScaleCell:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            _run_once("marsbase", "kill", trackers=3, num_jobs=2, seed=1)

    def test_all_jobs_complete(self):
        out = _run_once("baseline", "wait", trackers=5, num_jobs=8, seed=99)
        assert out["jobs_completed"] == 8.0
        assert out["makespan"] > 0
        assert out["mean_sojourn"] > 0
        assert out["p95_sojourn"] >= out["mean_sojourn"] * 0.5

    def test_shuffle_heavy_runs_reduces(self):
        out = _run_once(
            "shuffle-heavy", "wait", trackers=5, num_jobs=6, seed=5
        )
        assert out["jobs_completed"] == 6.0

    def test_suspend_preempts_at_scale(self):
        out = _run_once("burst", "suspend", trackers=4, num_jobs=10, seed=17)
        assert out["jobs_completed"] == 10.0
        # Burst arrivals on a small cluster force contention; HFSP must
        # actually exercise the primitive.
        assert out["preemptions"] >= 1.0


class TestScaleStudy:
    def small_report(self):
        return run_scale_study(
            runs=1,
            cluster_sizes=[4],
            scenarios=["baseline"],
            primitives=["wait", "kill"],
            num_jobs=6,
        )

    def test_report_shape(self):
        report = self.small_report()
        assert report.experiment_id == "scale"
        names = [series.name for series in report.series]
        assert "scale-baseline-mean-sojourn" in names
        assert "scale-baseline-wasted" in names
        rendered = report.render(plots=False)
        assert "metrics digest" in rendered
        assert report.extras["cluster_sizes"] == [4]

    def test_runs_validation(self):
        with pytest.raises(ConfigurationError):
            run_scale_study(runs=0)

    def test_digest_stable_across_invocations(self):
        assert (
            self.small_report().extras["digest"]
            == self.small_report().extras["digest"]
        )

    def test_scenarios_registry_complete(self):
        assert set(SCENARIOS) == {
            "baseline",
            "shuffle-heavy",
            "burst",
            "diurnal",
            "steady",
        }
        for shape in SCENARIOS.values():
            assert shape["arrival"] in ("poisson", "bursty", "diurnal")

    def test_metrics_digest_sensitivity(self):
        a = metrics_digest({"x": (1.0,)})
        b = metrics_digest({"x": (1.0000000000000002,)})
        assert a != b
