"""Telemetry integration: the silence invariant and merge determinism.

The load-bearing guarantees:

* **silence** -- attaching a :class:`SpanCollector` and enabling
  engine profiling changes *nothing* observable: trace digests and
  metrics are byte-identical with telemetry on and off, across the
  two-job microbenchmark and the replay studies;
* **merge determinism** -- the sketch merged from ``--workers 4``
  shards digests identically to the serial merge;
* **reconciliation** -- summed kill-episode ``wasted_seconds`` in a
  trace equals the wasted-work ledger's preemption-kill charge;
* the ``repro trace`` CLI emits schema-valid Chrome trace JSON.
"""

import json

import pytest

from repro.experiments.runner import SweepOptions, derive_seed
from repro.telemetry import SpanCollector, validate_chrome_trace
from repro.telemetry.capture import capture_experiment


def _scale_cell(**telemetry):
    from repro.experiments.scale_study import _run_once

    return _run_once(
        scenario="baseline",
        primitive_name="suspend",
        trackers=8,
        num_jobs=8,
        seed=derive_seed(9000, "scale", "baseline", 8, "suspend", 0),
        trace=True,
        **telemetry,
    )


def _memscale_cell(**telemetry):
    from repro.experiments.memscale_study import _run_once

    return _run_once(
        mode="suspend-gated",
        trackers=8,
        num_jobs=8,
        seed=derive_seed(12000, "memscale", 8, "suspend-gated", 0),
        trace=True,
        **telemetry,
    )


class TestSilenceInvariant:
    """Telemetry on vs off: event-for-event identical runs."""

    @pytest.mark.parametrize("cell", [_scale_cell, _memscale_cell])
    def test_study_cells_are_undisturbed(self, cell):
        plain = cell()
        collector = SpanCollector(include_heartbeats=True)
        traced = cell(collector=collector, profile=True)
        assert traced["trace_digest"] == plain["trace_digest"]
        assert collector.records_seen > 0
        for key, value in plain.items():
            if isinstance(value, (int, float)):
                assert traced[key] == value, key
        assert traced["sketch"] == plain["sketch"]

    def test_two_job_harness_is_undisturbed(self):
        from repro.experiments.harness import TwoJobHarness

        def run(**telemetry):
            harness = TwoJobHarness(
                "suspend", 0.5, runs=1, keep_traces=True, **telemetry
            )
            return harness.run_once(seed=4242)

        plain = run()
        traced = run(collector=SpanCollector(), profile=True)
        assert (
            traced.trace_cluster.sim.trace_log.digest()
            == plain.trace_cluster.sim.trace_log.digest()
        )
        assert traced.sojourn_th == plain.sojourn_th
        assert traced.makespan == plain.makespan
        assert traced.tl_wasted_seconds == plain.tl_wasted_seconds


class TestSketchMergeDeterminism:
    def test_workers_4_digest_matches_serial(self):
        from repro.experiments.scale_study import run_scale_study

        kwargs = dict(
            runs=1,
            cluster_sizes=[8],
            scenarios=["baseline", "burst"],
            primitives=["kill", "suspend"],
            num_jobs=8,
        )
        serial = run_scale_study(sweep=SweepOptions(workers=1), **kwargs)
        sharded = run_scale_study(sweep=SweepOptions(workers=4), **kwargs)
        assert (
            sharded.extras["sketch_digest"] == serial.extras["sketch_digest"]
        )
        assert json.dumps(sharded.extras["sketch"], sort_keys=True) == (
            json.dumps(serial.extras["sketch"], sort_keys=True)
        )
        # The historical metrics digest is untouched by the sketches.
        assert sharded.extras["digest"] == serial.extras["digest"]


class TestLedgerReconciliation:
    def test_kill_episode_waste_equals_ledger_charge(self):
        capture = capture_experiment("fig2")
        kill_cell = next(
            cell for cell in capture.cells if cell.name.endswith("/kill")
        )
        ledger_charge = kill_cell.wasted_by_cause.get("preemption-kill", 0.0)
        assert ledger_charge > 0.0
        assert kill_cell.collector.episode_wasted_seconds() == pytest.approx(
            ledger_charge, abs=1e-9
        )

    def test_suspend_episodes_waste_nothing(self):
        capture = capture_experiment("fig2")
        suspend_cell = next(
            cell for cell in capture.cells if cell.name.endswith("/suspend")
        )
        episodes = suspend_cell.collector.by_category("episode")
        assert episodes, "suspend run produced no preemption episodes"
        assert suspend_cell.collector.episode_wasted_seconds() == 0.0


class TestTraceCli:
    def test_trace_fig2_emits_valid_chrome_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fig2.trace.json"
        rc = main(["trace", "fig2", "--quick", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        validate_chrome_trace(payload)
        events = payload["traceEvents"]
        episode_events = [
            e
            for e in events
            if e["ph"] == "X" and e["name"].startswith("suspend-episode:")
        ]
        assert episode_events, "trace has no suspend-episode spans"
        processes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert processes == {"fig2/wait", "fig2/kill", "fig2/suspend"}

    def test_trace_is_deterministic_across_invocations(self, tmp_path):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "fig2", "--quick", "--out", str(a)]) == 0
        assert main(["trace", "fig2", "--quick", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_trace_rejects_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["trace", "nonsense"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEngineProfileCapture:
    def test_profile_records_label_counts(self):
        capture = capture_experiment("fig2")
        for cell in capture.cells:
            assert cell.engine["profile_enabled"]
            labels = cell.engine["labels"]
            assert sum(labels.values()) == cell.engine["events_fired"]
            assert "tt.heartbeat" in labels
