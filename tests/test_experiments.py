"""Experiment harness: scaled-down shape checks of the paper's figures.

Each test runs a miniature version of one experiment (fewer runs,
fewer axis points) and asserts the *shape* claims the paper makes --
which curves dominate which, where the crossovers fall, how swap
grows.  The full-scale numbers live in the benchmark suite and
EXPERIMENTS.md.
"""

import pytest

from repro.experiments.fig2_baseline import run_fig2
from repro.experiments.fig4_memory_sweep import run_fig4
from repro.experiments.harness import TwoJobHarness, sweep_grid
from repro.experiments.registry import get_experiment, list_experiments
from repro.units import GB

pytestmark = [pytest.mark.integration, pytest.mark.slow]

RUNS = 2
POINTS = [0.25, 0.75]


class TestHarness:
    def test_single_run_metrics_positive(self):
        result = TwoJobHarness("suspend", 0.5).run_once(1000)
        assert result.sojourn_th > 0
        assert result.makespan > result.sojourn_th

    def test_runs_average_and_spread(self):
        [result] = sweep_grid(
            [dict(primitive="suspend", progress_at_launch=0.5)], runs=3
        )
        assert result.sojourn_th.count == 3
        # The paper's 5% spread check.
        assert result.sojourn_th.max_relative_deviation < 0.05

    def test_invalid_progress_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TwoJobHarness("suspend", 0.0)
        with pytest.raises(ConfigurationError):
            sweep_grid([dict(primitive="suspend", progress_at_launch=0.5)],
                       runs=0)


class TestFig2Shapes:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fig2(runs=RUNS, progress_points=POINTS)

    def test_sojourn_ordering(self, report):
        sojourn = report.find_series("baseline-sojourn")
        for x in sojourn.x_values:
            assert sojourn.point("suspend", x) < sojourn.point("kill", x)
            assert sojourn.point("kill", x) < sojourn.point("wait", x)

    def test_wait_sojourn_decays(self, report):
        sojourn = report.find_series("baseline-sojourn")
        ys = sojourn.curves["wait"]
        assert ys[0] > ys[-1]

    def test_makespan_ordering(self, report):
        makespan = report.find_series("baseline-makespan")
        for x in makespan.x_values:
            assert makespan.point("kill", x) > makespan.point("suspend", x)
            # suspend within 3% of wait (the "negligible overhead" claim)
            assert makespan.point("suspend", x) <= makespan.point("wait", x) * 1.03

    def test_kill_makespan_grows(self, report):
        makespan = report.find_series("baseline-makespan")
        ys = makespan.curves["kill"]
        assert ys[-1] > ys[0]

    def test_suspend_beats_wait_even_at_90pct(self):
        # "outperforms all other primitives even when th arrives at 90%
        # completion rate of task tl"
        wait, susp = sweep_grid(
            [dict(primitive="wait", progress_at_launch=0.9),
             dict(primitive="suspend", progress_at_launch=0.9)],
            runs=RUNS,
        )
        assert susp.sojourn_th.mean < wait.sojourn_th.mean


class TestFig3Shapes:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fig2(runs=RUNS, progress_points=[0.5], heavy=True)

    def test_kill_edges_suspend_on_sojourn(self, report):
        sojourn = report.find_series("worst-case-sojourn")
        assert sojourn.point("kill", 50.0) < sojourn.point("suspend", 50.0)

    def test_wait_edges_suspend_on_makespan(self, report):
        makespan = report.find_series("worst-case-makespan")
        assert makespan.point("wait", 50.0) < makespan.point("suspend", 50.0)

    def test_suspend_still_beats_wait_sojourn_and_kill_makespan(self, report):
        sojourn = report.find_series("worst-case-sojourn")
        makespan = report.find_series("worst-case-makespan")
        assert sojourn.point("suspend", 50.0) < sojourn.point("wait", 50.0)
        assert makespan.point("suspend", 50.0) < makespan.point("kill", 50.0)


class TestFig4Shapes:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fig4(
            runs=RUNS, memory_points=[0, int(1.25 * GB), int(2.5 * GB)]
        )

    def test_swap_monotone_increasing(self, report):
        swap = report.find_series("fig4-paged-bytes").curves["swap"]
        assert swap[0] == pytest.approx(0.0, abs=1.0)
        assert swap[0] < swap[1] < swap[2]

    def test_swap_superlinear_start(self, report):
        # "swapped data grows more than linearly"
        series = report.find_series("fig4-paged-bytes")
        xs, ys = series.x_values, series.curves["swap"]
        slope_first = (ys[1] - ys[0]) / (xs[1] - xs[0])
        slope_second = (ys[2] - ys[1]) / (xs[2] - xs[1])
        assert slope_first < slope_second * 2.5  # not wildly sub-linear later

    def test_overheads_track_swap(self, report):
        overheads = report.find_series("fig4-overheads")
        sojourn = overheads.curves["th sojourn time"]
        makespan = overheads.curves["makespan"]
        assert sojourn[-1] > sojourn[0]
        assert makespan[-1] > makespan[0]
        assert makespan[-1] > 5.0  # clearly visible at 2.5 GB


class TestNatjamShape:
    def test_natjam_costs_more_than_suspend(self):
        report = get_experiment("natjam")(runs=RUNS, progress_points=[0.5])
        natjam = report.extras["mean_overhead_natjam_pct"]
        suspend = report.extras["mean_overhead_suspend_pct"]
        assert natjam > suspend
        # The paper quotes ~7% for Natjam; accept a broad band.
        assert 2.0 < natjam < 15.0
        assert suspend < 2.0


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(list_experiments()) == {
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "natjam",
            "eviction",
            "hfsp",
            "swappiness",
            "gc",
            "adaptive",
            "faults",
            "scale",
            "shuffle",
            "memscale",
        }

    def test_aliases(self):
        assert get_experiment("2a") is get_experiment("fig2")
        assert get_experiment("4") is get_experiment("fig4")

    def test_unknown_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_fig1_renders_schedules(self):
        report = get_experiment("fig1")()
        charts = report.extras["charts"]
        assert set(charts) == {"wait", "kill", "suspend"}
        # The suspend chart must show a suspension gap.
        assert "." in charts["suspend"]
        # The kill chart must show a restarted attempt (two rows for tl).
        assert charts["kill"].count("job0001") == 2
