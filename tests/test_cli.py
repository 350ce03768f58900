"""Command-line interface."""

import os

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "natjam", "shuffle",
                     "memscale"):
            assert name in out

    def test_list_prints_descriptions(self, capsys):
        from repro.experiments.registry import DESCRIPTIONS, list_experiments

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Every registered experiment carries its one-line description:
        # a registry entry without one is a test failure here, never a
        # silent omission in `repro list`.
        assert set(DESCRIPTIONS) == set(list_experiments())
        for name in list_experiments():
            description = DESCRIPTIONS[name]
            assert description and description.strip(), (
                f"experiment {name!r} has an empty description"
            )
            assert description in out

    def test_every_alias_resolves_to_a_registered_experiment(self):
        from repro.experiments.registry import (
            ALIASES,
            EXPERIMENTS,
            describe_experiment,
            resolve_name,
        )

        for alias, target in ALIASES.items():
            assert target in EXPERIMENTS, (
                f"alias {alias!r} points at unregistered {target!r}"
            )
            assert resolve_name(alias) == target
            # Descriptions are reachable through aliases too.
            assert describe_experiment(alias)

    def test_every_runner_declares_sweep_and_base_seed(self):
        import inspect

        from repro.experiments.registry import EXPERIMENTS

        for name, runner in EXPERIMENTS.items():
            parameters = inspect.signature(runner.resolve()).parameters
            assert {"sweep", "base_seed"} <= set(parameters), name

    def test_memscale_registered_with_aliases(self):
        from repro.experiments.registry import get_experiment

        assert get_experiment("memscale") is get_experiment("e11")
        assert get_experiment("memory") is get_experiment("memscale_study")


class TestWorkers:
    def test_negative_workers_rejected(self, capsys):
        assert main(["run", "fig1", "--workers", "-1"]) == 1
        assert "--workers must be >= 0" in capsys.readouterr().err


class TestSweepFlags:
    """Every experiment takes every sweep flag, and only for the
    command that gave them."""

    def test_sweep_flags_do_not_outlive_their_command(self, tmp_path, capsys):
        import shutil

        from repro.experiments.harness import TwoJobHarness
        from repro.experiments.runner import Cell, run_cells

        cache = tmp_path / "ck"
        assert main(["run", "fig1", "--workers", "2", "--no-plots",
                     "--checkpoint-dir", str(cache),
                     "--max-retries", "1"]) == 0
        capsys.readouterr()
        assert (cache / "manifest.json").exists()  # fig1 swept into it
        shutil.rmtree(cache)
        params = TwoJobHarness("kill", 0.5)._cell_params()
        cells = [Cell.make("repro.experiments.harness", "_harness_cell",
                           seed=5, **params)]
        run_cells(cells, workers=1)
        assert not cache.exists()
        assert capsys.readouterr().err == ""

    def test_formerly_serial_experiment_takes_every_sweep_flag(
        self, tmp_path, capsys
    ):
        assert main(["run", "fig1", "--no-plots"]) == 0
        serial = capsys.readouterr().out
        cache = tmp_path / "ck"
        assert main(["run", "fig1", "--no-plots", "--workers", "2",
                     "--checkpoint-dir", str(cache), "--max-retries", "1",
                     "--cell-timeout", "60", "--snapshot-every", "10",
                     "--chaos", "7", "--serve", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "ignoring" not in captured.err
        assert "observatory at" in captured.err
        assert main(["resume", str(cache)]) == 0
        assert f"{cache}: 3/3 cells checkpointed" in capsys.readouterr().out

    def test_snapshot_every_without_checkpoint_dir_warns(self, capsys):
        assert main(["run", "fig2", "--quick", "--runs", "1", "--quiet",
                     "--no-plots", "--snapshot-every", "10"]) == 0
        assert "ignoring --snapshot-every without one" in (
            capsys.readouterr().err
        )

    def test_served_run_leaves_no_temp_dir(self, tmp_path, monkeypatch,
                                           capsys):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        assert main(["run", "fig2", "--quick", "--runs", "1", "--serve",
                     "--quiet", "--no-plots"]) == 0
        assert "observatory at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.integration
    def test_checkpointed_cli_sweep_resumes_from_its_cache(
        self, tmp_path, capsys
    ):
        import json

        cache = str(tmp_path / "sweep")
        argv = ["run", "fig2", "--quick", "--runs", "1", "--workers", "2",
                "--checkpoint-dir", cache, "--quiet", "--no-plots"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert (manifest["done"], manifest["total"]) == (9, 9)
        assert all(cell["done"] for cell in manifest["cells"])

        assert main(argv) == 0
        assert capsys.readouterr().out == first
        with open(os.path.join(cache, "ledger.jsonl")) as fh:
            events = [json.loads(line)["event"] for line in fh]
        assert events.count("cell-cached") == 9
        assert events.count("sweep-finish") == 2

        assert main(["resume", cache]) == 0
        assert f"{cache}: 9/9 cells checkpointed" in capsys.readouterr().out


class TestSchedule:
    def test_schedule_suspend(self, capsys):
        assert main(["schedule", "--primitive", "suspend", "--progress", "50"]) == 0
        out = capsys.readouterr().out
        assert "sojourn" in out
        assert "=" in out  # the Gantt bars

    def test_schedule_kill(self, capsys):
        assert main(["schedule", "--primitive", "kill"]) == 0
        assert "makespan" in capsys.readouterr().out


class TestReproduce:
    def test_requires_figures(self, capsys):
        assert main(["reproduce"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_quick_fig1(self, capsys):
        assert main(["reproduce", "--figure", "fig1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "task execution schedules" in out

    @pytest.mark.slow
    def test_quick_fig2_with_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        code = main(
            [
                "reproduce",
                "--figure",
                "fig2",
                "--quick",
                "--no-plots",
                "--out",
                out_dir,
            ]
        )
        assert code == 0
        files = os.listdir(out_dir)
        assert any(name.endswith(".csv") for name in files)
        out = capsys.readouterr().out
        assert "baseline-sojourn" in out

    @pytest.mark.slow
    def test_runs_override(self, capsys):
        code = main(
            ["reproduce", "--figure", "natjam", "--quick", "--runs", "1",
             "--no-plots"]
        )
        assert code == 0
        assert "natjam" in capsys.readouterr().out


class TestProfile:
    def test_profile_quick_fig1(self, capsys):
        assert main(["profile", "fig1", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats table header
        assert "function calls" in out

    def test_profile_dump_to_file(self, tmp_path, capsys):
        out_path = os.path.join(tmp_path, "prof.pstats")
        assert main(
            ["profile", "fig1", "--sort", "tottime", "--out", out_path]
        ) == 0
        assert os.path.exists(out_path)
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "nope"]) == 1
        assert "error" in capsys.readouterr().err


class TestResumeSweepDir:
    def test_stale_schema_cell_is_not_done(self, tmp_path, capsys):
        import json
        import pickle

        from repro.experiments.runner import _cache_write

        manifest = {"total": 3, "cells": [
            {"key": "fresh", "label": "cell fresh", "done": True},
            {"key": "stale", "label": "cell stale", "done": True},
            {"key": "torn", "label": "cell torn", "done": True},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        _cache_write(str(tmp_path), "fresh", {"x": 1.0})
        stale = tmp_path / "stale.pkl"
        with open(stale, "wb") as fh:
            pickle.dump({"schema": "another-tree", "result": {"x": 2.0}}, fh)
        torn = tmp_path / "torn.pkl"
        torn.write_bytes(b"\x80\x05 not a whole pickle")
        assert main(["resume", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "1/3 cells checkpointed" in captured.out
        assert "[x] cell fresh" in captured.out
        assert "[ ] cell stale" in captured.out
        assert "[ ] cell torn" in captured.out
        # A report, not a sweep: nothing is moved or announced.
        assert stale.exists() and torn.exists()
        assert not list(tmp_path.glob("*.corrupt"))
        assert captured.err == ""


class TestBenchGuard:
    """tools/bench_guard.py: artifact shape and regression detection."""

    def _load_guard(self):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "tools" / "bench_guard.py"
        spec = importlib.util.spec_from_file_location("bench_guard", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_run_and_self_check_passes(self, tmp_path):
        guard = self._load_guard()
        out = os.path.join(tmp_path, "bench.json")
        assert guard.main(["--out", out, "--scale", "0.08"]) == 0
        import json

        with open(out) as handle:
            payload = json.load(handle)
        assert set(payload["benches"]) == set(guard.BENCHES)
        for counters in payload["benches"].values():
            assert counters["wall_s"] >= 0
        # Same machine, same scale: the guard must accept its own run.
        out2 = os.path.join(tmp_path, "bench2.json")
        assert guard.main(
            ["--out", out2, "--scale", "0.08", "--check", out]
        ) == 0

    def test_counter_regression_fails(self, tmp_path):
        guard = self._load_guard()
        current = {"cell": {"wall_s": 1.0, "events": 130, "engine_ops": 10}}
        baseline = {"cell": {"wall_s": 1.0, "events": 100, "engine_ops": 10}}
        problems, warnings = guard.check(current, baseline)
        assert problems and "events" in problems[0]
        assert warnings == []

    def test_uniformly_slower_machine_passes_wall(self):
        guard = self._load_guard()
        baseline = {
            "a": {"wall_s": 1.0, "events": 10, "engine_ops": 0},
            "b": {"wall_s": 2.0, "events": 10, "engine_ops": 0},
            "c": {"wall_s": 4.0, "events": 10, "engine_ops": 0},
        }
        current = {
            name: {"wall_s": vals["wall_s"] * 3.0, "events": 10, "engine_ops": 0}
            for name, vals in baseline.items()
        }
        assert guard.check(current, baseline) == ([], [])

    def test_single_bench_wall_regression_warns_only(self):
        # A foreign machine's skewed per-bench speed ratio must never
        # hard-fail the guard: wall outliers are advisory warnings,
        # and only the deterministic counters gate.
        guard = self._load_guard()
        baseline = {
            "a": {"wall_s": 1.0, "events": 10, "engine_ops": 0},
            "b": {"wall_s": 2.0, "events": 10, "engine_ops": 0},
            "c": {"wall_s": 4.0, "events": 10, "engine_ops": 0},
        }
        current = {name: dict(vals) for name, vals in baseline.items()}
        current["c"]["wall_s"] = 20.0
        problems, warnings = guard.check(current, baseline)
        assert problems == []
        assert warnings and "c: wall" in warnings[0]
        assert "advisory" in warnings[0]

    def test_sketch_digest_drift_fails(self):
        guard = self._load_guard()
        baseline = {"cell": {"wall_s": 1.0, "events": 10, "engine_ops": 0,
                             "sketch_digest": "aaaa"}}
        current = {"cell": dict(baseline["cell"], sketch_digest="bbbb")}
        problems, _ = guard.check(current, baseline)
        assert problems and "sketch digest" in problems[0]

    def test_report_counters_compare_exactly(self):
        # Fewer reports or statuses than the baseline is drift too: the
        # report path's work is pinned, not bounded.
        guard = self._load_guard()
        baseline = {"cell": {"wall_s": 1.0, "events": 10, "engine_ops": 0,
                             "reports": 100, "statuses": 170}}
        for counter, value in (("reports", 99), ("statuses", 171)):
            current = {"cell": dict(baseline["cell"], **{counter: value})}
            problems, _ = guard.check(current, baseline)
            assert problems and f"cell: {counter}" in problems[0]
        assert guard.check({"cell": dict(baseline["cell"])}, baseline) == ([], [])

    def test_wall_gated_bench_fails_past_its_bound_at_full_scale(self):
        guard = self._load_guard()
        baseline = {
            "a": {"wall_s": 1.0, "events": 10, "engine_ops": 0},
            "b": {"wall_s": 2.0, "events": 10, "engine_ops": 0},
            "scale_2000": {"wall_s": 4.0, "events": 10, "engine_ops": 0},
        }
        current = {name: dict(vals) for name, vals in baseline.items()}
        current["scale_2000"]["wall_s"] = 4.0 * guard.MAX_WALL_RATIO * 1.1
        problems, _ = guard.check(current, baseline, gate_walls=True)
        assert problems and "scale_2000: wall" in problems[0]
        # Below full scale the same drift only warns.
        problems, warnings = guard.check(current, baseline)
        assert problems == [] and "scale_2000: wall" in warnings[0]
        # Within the bound it only warns at full scale too.
        current["scale_2000"]["wall_s"] = 4.0 * 2.0
        problems, warnings = guard.check(current, baseline, gate_walls=True)
        assert problems == [] and "scale_2000: wall" in warnings[0]

    def test_wall_only_regression_exits_zero(self, tmp_path):
        # End to end: a baseline whose walls are wildly off for this
        # host (as checked-in baselines are on foreign machines) still
        # exits 0 when the counters match.
        guard = self._load_guard()
        import json

        out = os.path.join(tmp_path, "bench.json")
        assert guard.main(["--out", out, "--scale", "0.08"]) == 0
        with open(out) as handle:
            payload = json.load(handle)
        skewed = os.path.join(tmp_path, "skewed.json")
        benches = {
            name: dict(vals) for name, vals in payload["benches"].items()
        }
        for i, vals in enumerate(benches.values()):
            # Non-uniform skew: median calibration cannot flatten it.
            vals["wall_s"] = max(vals["wall_s"], guard.WALL_FLOOR_S) * (
                50.0 if i % 2 else 1.0
            )
        with open(skewed, "w") as handle:
            json.dump({"scale": 0.08, "benches": benches}, handle)
        assert guard.main(
            ["--out", os.path.join(tmp_path, "b2.json"), "--scale", "0.08",
             "--check", skewed]
        ) == 0
