"""The run ledger, its streaming aggregation, and its readers.

Three claims carry the subsystem:

* the ledger is **crash-tolerant**: a truncated or interleaved final
  line -- what a SIGKILLed writer leaves -- is skipped with a warning
  by every reader, never raised;
* :func:`repro.obs.replay` is a **pure fold**: replaying the file
  reconstructs exactly the state a live subscriber held, merged-sketch
  digest included, and that state agrees with the sweep's manifest;
* observation is **silent**: a sweep run with the ledger on returns
  results byte-identical to one run with it off, trace digests
  included.

Worker-fault cells live at module level so forked/spawned workers can
import them by module path.
"""

import io
import json
import os
import socket
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import ChaosFault, make_plan
from repro.experiments.runner import (
    Cell,
    cell_cost,
    cell_key,
    run_cells,
)
from repro.experiments.supervisor import SupervisorConfig, supervise_cells
from repro.obs import (
    LEDGER_FILENAME,
    SCHEMA_VERSION,
    ConsoleRenderer,
    Ledger,
    SweepState,
    iter_ledger,
    render_dashboard,
    replay,
    watch,
)
from repro.obs.watch import _Follower
from repro.telemetry.registry import MetricRegistry


def probe_cell(seed: int) -> dict:
    return {"seed": seed, "value": seed * 3, "events": 10.0 * (seed + 1)}


def exploding_cell(seed: int) -> None:
    raise ValueError(f"cell {seed} exploded")


def probes(n):
    return [
        Cell.make("tests.test_obs", "probe_cell", seed=i) for i in range(n)
    ]


def fast_config(**overrides):
    defaults = dict(
        max_retries=1, backoff_base=0.01, backoff_cap=0.05,
        heartbeat_interval=0.05, snapshot_every=None,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _sketch_dict(name: str, values) -> dict:
    registry = MetricRegistry()
    for value in values:
        registry.observe(name, value)
    return registry.to_dict()


# ----------------------------------------------------------------------
# Ledger file format
# ----------------------------------------------------------------------


class TestLedgerFile:
    def test_envelope_fields_and_monotone_seq(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path) as ledger:
            ledger.emit("sweep-start", total=2)
            ledger.emit("cell-start", index=0)
        records = list(iter_ledger(path))
        assert [r["event"] for r in records] == ["sweep-start", "cell-start"]
        for record in records:
            assert record["v"] == SCHEMA_VERSION
            assert record["pid"] == os.getpid()
            assert isinstance(record["t"], float)
        assert [r["seq"] for r in records] == [1, 2]
        assert records[0]["total"] == 2

    def test_one_line_per_event(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with Ledger(path) as ledger:
            for i in range(5):
                ledger.emit("cell-finish", index=i)
        lines = open(path, "rb").read().splitlines(keepends=True)
        assert len(lines) == 5
        assert all(line.endswith(b"\n") for line in lines)
        assert all(json.loads(line) for line in lines)

    def test_pathless_ledger_feeds_subscribers_only(self, tmp_path):
        seen = []
        ledger = Ledger(None)
        ledger.subscribe(seen.append)
        ledger.emit("cell-start", index=3)
        assert seen[0]["event"] == "cell-start"
        assert seen[0]["index"] == 3
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_appends_interleave_at_line_boundaries(
        self, tmp_path
    ):
        # Two handles on the same file, interleaved emits: O_APPEND
        # single-write semantics keep every line whole.
        path = str(tmp_path / "ledger.jsonl")
        a, b = Ledger(path), Ledger(path)
        for i in range(20):
            (a if i % 2 else b).emit("cell-finish", index=i, pad="x" * 200)
        a.close(), b.close()
        records = list(iter_ledger(path))
        assert sorted(r["index"] for r in records) == list(range(20))


# ----------------------------------------------------------------------
# Crash-tolerant reading
# ----------------------------------------------------------------------


class TestCrashTolerantReading:
    def _write(self, tmp_path, blob: bytes) -> str:
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "wb") as fh:
            fh.write(blob)
        return path

    def test_truncated_final_line_skipped_with_warning(
        self, tmp_path, capsys
    ):
        path = self._write(
            tmp_path,
            b'{"v":1,"seq":1,"event":"sweep-start","total":1}\n'
            b'{"v":1,"seq":2,"event":"cell-fin',  # SIGKILL mid-append
        )
        records = list(iter_ledger(path))
        assert [r["event"] for r in records] == ["sweep-start"]
        assert "incomplete final ledger line" in capsys.readouterr().err

    def test_corrupt_complete_line_skipped_with_warning(
        self, tmp_path, capsys
    ):
        path = self._write(
            tmp_path,
            b'{"v":1,"seq":1,"event":"sweep-start","total":1}\n'
            b'\x00\x17garbage{{{\n'
            b'{"v":1,"seq":3,"event":"sweep-finish"}\n',
        )
        records = list(iter_ledger(path))
        assert [r["event"] for r in records] == ["sweep-start", "sweep-finish"]
        assert "corrupt ledger line 2" in capsys.readouterr().err

    def test_future_schema_line_skipped(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            b'{"v":999,"seq":1,"event":"sweep-start"}\n'
            b'{"v":1,"seq":2,"event":"sweep-finish"}\n',
        )
        records = list(iter_ledger(path))
        assert [r["event"] for r in records] == ["sweep-finish"]
        assert "newer than this reader" in capsys.readouterr().err

    def test_replay_never_raises_on_damage(self, tmp_path):
        path = self._write(tmp_path, b"\xff\xfe not json at all")
        state = replay(path, warn=False)
        assert state.events_applied == 0
        assert not state.finished

    def test_follower_holds_back_partial_line_until_newline(self, tmp_path):
        path = self._write(
            tmp_path,
            b'{"v":1,"seq":1,"event":"cell-start","index":0}\n'
            b'{"v":1,"seq":2,"event":"cell-fin',  # writer mid-append
        )
        follower = _Follower(path)
        assert follower.refresh().event_counts == {"cell-start": 1}
        with open(path, "ab") as fh:
            fh.write(b'ish","index":0}\n')
        assert follower.refresh().event_counts == {
            "cell-start": 1, "cell-finish": 1,
        }
        assert follower.refresh().events_applied == 2


# ----------------------------------------------------------------------
# Streaming aggregation
# ----------------------------------------------------------------------


class TestSweepState:
    def _start(self, state, total=4, workers=2):
        state.apply({
            "v": 1, "t": 0.0, "event": "sweep-start", "total": total,
            "workers": workers, "grid_digest": "abc", "experiment": "probe",
            "cells": [{"index": i, "key": f"k{i}", "label": f"cell {i}"}
                      for i in range(total)],
        })

    def test_progress_counts_and_attempts(self):
        state = SweepState()
        self._start(state)
        state.apply({"event": "cell-cached", "index": 0})
        state.apply({"event": "cell-start", "index": 1, "attempt": 0})
        state.apply({"event": "cell-start", "index": 2, "attempt": 0})
        state.apply({"event": "cell-retry", "index": 2, "attempt": 1,
                     "cause": "worker died"})
        state.apply({"event": "cell-start", "index": 2, "attempt": 1})
        state.apply({"event": "cell-finish", "index": 1, "cost": 5.0,
                     "t": 1.0})
        assert state.count("cached") == 1
        assert state.count("done") == 1
        assert state.count("running") == 1
        assert state.done == 2
        assert state.cells[2]["attempts"] == 2
        assert state.cells[2]["causes"] == ["worker died"]
        assert not state.finished

    def test_quarantine_and_finish(self):
        state = SweepState()
        self._start(state, total=2)
        state.apply({"event": "cell-quarantine", "index": 0, "attempts": 3,
                     "cause": "timeout", "causes": ["timeout"] * 3})
        state.apply({"event": "cell-finish", "index": 1, "t": 1.0})
        state.apply({"event": "sweep-finish", "t": 2.0,
                     "counters": {"quarantines": 1}})
        assert state.count("quarantined") == 1
        assert state.finished
        assert state.eta_seconds() == 0.0
        assert state.counters["quarantines"] == 1

    def test_rate_and_eta_are_cost_weighted(self):
        state = SweepState()
        self._start(state, total=10)
        # 4 finishes, one per second, 100 cost each -> 100 cost/s.
        for i in range(4):
            state.apply({"event": "cell-start", "index": i, "attempt": 0})
            state.apply({"event": "cell-finish", "index": i,
                         "cost": 100.0, "t": float(i)})
        assert state.rate() == pytest.approx(100.0)
        # 6 cells left at mean cost 100 -> 600 cost / 100 cost/s = 6 s.
        assert state.eta_seconds(now=3.0) == pytest.approx(6.0)

    def test_eta_unknowable_before_two_finishes(self):
        state = SweepState()
        self._start(state)
        assert state.eta_seconds() is None
        state.apply({"event": "cell-finish", "index": 0, "t": 1.0})
        assert state.eta_seconds() is None  # one sample anchors only

    def test_sketches_merge_incrementally_and_exactly(self):
        # The mid-sweep merged registry must equal a post-hoc merge of
        # the same shards -- the registry merge is exact and
        # order-insensitive, and the fold must not break that.
        shards = [
            _sketch_dict("sojourn", [1.0, 5.0]),
            _sketch_dict("sojourn", [120.0, 7.5, 3.0]),
            _sketch_dict("sojourn", [42.0]),
        ]
        state = SweepState()
        self._start(state, total=3)
        for i, shard in enumerate(shards):
            state.apply({"event": "cell-finish", "index": i, "t": float(i),
                         "sketch": shard})
        reference = MetricRegistry()
        for shard in reversed(shards):
            reference.merge(MetricRegistry.from_dict(shard))
        assert state.registry.digest() == reference.digest()
        summary = state.sketch_summary()
        assert summary["sojourn"]["count"] == 6
        assert summary["sojourn"]["p95"] >= summary["sojourn"]["p50"]

    def test_to_dict_snapshot_shape(self):
        state = SweepState()
        self._start(state)
        state.apply({"event": "worker-spawn", "slot": 0})
        state.apply({"event": "snapshot", "path": "x.midck",
                     "virtual_now": 900.0})
        state.apply({"event": "counters", "counters": {"retries": 2}})
        snap = state.to_dict(now=1.0)
        assert snap["total"] == 4
        assert snap["grid_digest"] == "abc"
        assert snap["progress"]["pending"] == 4
        assert snap["worker_events"] == {"spawns": 1}
        assert snap["snapshots"] == 1
        assert snap["supervisor"] == {"retries": 2}
        assert [c["index"] for c in snap["cells"]] == [0, 1, 2, 3]
        json.dumps(snap)  # must be JSON-serializable as-is


class TestCellCost:
    def test_dict_result_uses_events(self):
        assert cell_cost({"events": 250.0}) == 250.0

    def test_fallbacks(self):
        assert cell_cost({"makespan": 3.0}) == 1.0
        assert cell_cost(object()) == 1.0
        assert cell_cost({"events": 0}) == 1.0
        assert cell_cost({"events": "bogus"}) == 1.0


# ----------------------------------------------------------------------
# Runner integration: ledger events, replay == manifest
# ----------------------------------------------------------------------


class TestRunnerLedger:
    def test_serial_sweep_writes_deterministic_event_counts(
        self, tmp_path
    ):
        cache = str(tmp_path / "sweep")
        run_cells(probes(3), workers=1, cache_dir=cache)
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        assert state.event_counts == {
            "sweep-start": 1, "cell-start": 3, "cell-finish": 3,
            "sweep-finish": 1,
        }
        assert state.done == 3 and state.finished
        assert state.grid_digest

    def test_warm_cache_rerun_appends_cached_events(self, tmp_path):
        cache = str(tmp_path / "sweep")
        first = run_cells(probes(3), workers=1, cache_dir=cache)
        again = run_cells(probes(3), workers=1, cache_dir=cache)
        assert again == first
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        assert state.event_counts["cell-cached"] == 3
        assert state.event_counts["sweep-finish"] == 2
        assert state.done == 3

    def test_replay_agrees_with_manifest(self, tmp_path):
        cache = str(tmp_path / "sweep")
        cells = probes(4)
        run_cells(cells, workers=1, cache_dir=cache)
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert state.total == manifest["total"]
        assert state.done == manifest["done"]
        by_key = {c["key"]: c for c in state.to_dict()["cells"]}
        for entry in manifest["cells"]:
            assert entry["done"] == (
                by_key[entry["key"]]["state"] in ("done", "cached")
            )

    def test_manifest_fresh_after_every_cell(self, tmp_path):
        """Satellite regression: a sweep killed mid-flight must leave a
        manifest whose done flags reflect every completed cell.  The
        second cell raising plays the part of the kill -- before the
        per-cell flush, the manifest on disk still said done=0."""
        cache = str(tmp_path / "sweep")
        cells = [
            Cell.make("tests.test_obs", "probe_cell", seed=0),
            Cell.make("tests.test_obs", "exploding_cell", seed=1),
        ]
        with pytest.raises(ValueError, match="exploded"):
            run_cells(cells, workers=1, cache_dir=cache)
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["done"] == 1
        assert manifest["cells"][0]["done"] is True
        assert manifest["cells"][1]["done"] is False


# ----------------------------------------------------------------------
# Supervised integration: chaos, retries, quarantine in the ledger
# ----------------------------------------------------------------------


class TestSupervisedLedger:
    def test_ledger_counts_match_supervisor_stats_under_chaos(
        self, tmp_path
    ):
        cells = probes(4)
        kill_once = make_plan({
            (cell_key(cells[1]), 0): ChaosFault("kill"),
        })
        cache = str(tmp_path / "sweep")
        os.makedirs(cache)
        sweep = supervise_cells(
            cells, list(range(4)), workers=2,
            config=fast_config(chaos=kill_once),
            cache_dir=cache,
            ledger=Ledger(os.path.join(cache, LEDGER_FILENAME)),
        )
        assert sweep.quarantined == []
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        assert state.event_counts["cell-retry"] == sweep.stats["retries"] == 1
        assert state.event_counts["worker-death"] == 1
        assert state.event_counts["cell-finish"] == (
            sweep.stats["cells_completed"] == 4 and 4
        )
        assert state.cells[1]["attempts"] == 2
        assert state.worker_events["deaths"] == 1

    def test_quarantine_event_and_live_manifest_flush(self, tmp_path):
        from repro.errors import QuarantineError

        cells = probes(2) + [
            Cell.make("tests.test_supervisor", "sigkill_cell", seed=5),
        ]
        cache = str(tmp_path / "sweep")
        with pytest.raises(QuarantineError):
            run_cells(cells, workers=2, cache_dir=cache,
                      supervise=fast_config(max_retries=0))
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        assert state.event_counts["cell-quarantine"] == 1
        assert state.cells[2]["state"] == "quarantined"
        assert state.cells[2]["causes"]
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["quarantined"] == 1
        assert manifest["done"] == 2


# ----------------------------------------------------------------------
# Observation is silent: ledger-on == ledger-off, bit for bit
# ----------------------------------------------------------------------


def _scale_cells():
    from repro.experiments.runner import derive_seed

    return [
        Cell.make(
            "repro.experiments.scale_study", "_run_once",
            scenario="baseline", primitive_name=p, trackers=5,
            num_jobs=5,
            seed=derive_seed(9100, "scale", "baseline", 5, p, 0),
            trace=True,
        )
        for p in ("suspend", "kill")
    ]


def _memscale_cells():
    from repro.experiments.runner import derive_seed

    return [
        Cell.make(
            "repro.experiments.memscale_study", "_run_once",
            mode="suspend-gated", trackers=5, num_jobs=5,
            seed=derive_seed(9200, "memscale", 5, 0), trace=True,
        )
    ]


def _fig2_cells():
    from repro.experiments.harness import TwoJobHarness

    params = TwoJobHarness(
        primitive="suspend", progress_at_launch=0.5
    )._cell_params()
    return [
        Cell.make(
            "repro.experiments.harness", "_harness_cell", seed=611, **params
        )
    ]


class TestLedgerSilence:
    """The determinism rule: the ledger observes, never participates."""

    def _differential(self, cells, tmp_path):
        baseline = run_cells(cells, workers=1)          # no ledger at all
        cache = str(tmp_path / "on")
        # renderer subscribed too (progress) -- still silent
        observed = run_cells(cells, workers=1, cache_dir=cache, progress=True)
        assert os.path.getsize(os.path.join(cache, LEDGER_FILENAME)) > 0
        return baseline, observed

    def test_scale_cells_identical_with_ledger_on(self, tmp_path):
        baseline, observed = self._differential(_scale_cells(), tmp_path)
        assert observed == baseline
        for pair in zip(baseline, observed):
            assert pair[0]["trace_digest"] == pair[1]["trace_digest"]

    def test_memscale_cells_identical_with_ledger_on(self, tmp_path):
        baseline, observed = self._differential(_memscale_cells(), tmp_path)
        assert observed == baseline
        assert observed[0]["trace_digest"] == baseline[0]["trace_digest"]

    def test_fig2_cells_identical_with_ledger_on(self, tmp_path):
        baseline, observed = self._differential(_fig2_cells(), tmp_path)
        assert observed == baseline

    def test_sketch_digest_survives_the_ledger_round_trip(self, tmp_path):
        # The sketch a cell-finish event carries, folded by replay,
        # digests identically to the result's own sketch -- JSON
        # round-tripping loses nothing the merge needs.
        cells = _scale_cells()
        cache = str(tmp_path / "sweep")
        results = run_cells(cells, workers=1, cache_dir=cache)
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        reference = MetricRegistry()
        for result in results:
            reference.merge(MetricRegistry.from_dict(result["sketch"]))
        assert state.registry.digest() == reference.digest()


# ----------------------------------------------------------------------
# Console renderer
# ----------------------------------------------------------------------


class TestConsoleRenderer:
    def test_lifecycle_lines(self):
        out = io.StringIO()
        renderer = ConsoleRenderer(out=out)
        ledger = Ledger(None)
        ledger.subscribe(renderer)
        ledger.emit("sweep-start", total=2, workers=1, cached=1,
                    cells=[{"index": i, "key": f"k{i}", "label": f"c{i}"}
                           for i in range(2)])
        ledger.emit("cell-cached", index=0)
        ledger.emit("cell-start", index=1, label="c1", attempt=0)
        ledger.emit("cell-finish", index=1, label="c1", duration_s=0.25,
                    cost=1.0)
        ledger.emit("sweep-finish", done=2, total=2)
        text = out.getvalue()
        assert "[sweep] 2 cells over 1 worker(s)" in text
        assert "[cache] 1/2 cells already checkpointed" in text
        assert "start c1" in text
        assert "done c1 in 0.2s" in text
        assert "[sweep] finished: 2/2 cells done" in text

    def test_supervisor_lines(self):
        out = io.StringIO()
        renderer = ConsoleRenderer(out=out)
        renderer({"event": "cell-retry", "index": 3, "cause": "worker died",
                  "attempt": 1, "max_retries": 2})
        renderer({"event": "cell-quarantine", "index": 3, "attempts": 3,
                  "cause": "timeout"})
        renderer({"event": "worker-death", "slot": 0, "cause": "died",
                  "deaths": 1, "death_cap": 3})
        renderer({"event": "worker-retire", "slot": 0, "deaths": 4,
                  "remaining": 1})
        text = out.getvalue()
        assert "cell 3 failed (worker died); retry 1/2 queued" in text
        assert "quarantined after 3 attempt(s): timeout" in text
        assert "shard 0 died; restarting (death 1/3)" in text
        assert "retired after 4 consecutive deaths" in text


# ----------------------------------------------------------------------
# Terminal dashboard
# ----------------------------------------------------------------------


class TestWatch:
    def test_render_dashboard_frame(self, tmp_path):
        cache = str(tmp_path / "sweep")
        run_cells(probes(3), workers=1, cache_dir=cache)
        state = replay(os.path.join(cache, LEDGER_FILENAME), warn=False)
        frame = render_dashboard(state.to_dict(now=time.time()))
        assert "FINISHED" in frame
        assert "3/3 cells" in frame
        assert "[x]" in frame

    def test_watch_once_over_sweep_dir(self, tmp_path):
        cache = str(tmp_path / "sweep")
        run_cells(probes(2), workers=1, cache_dir=cache)
        out = io.StringIO()
        assert watch(cache, once=True, out=out) == 0
        assert "2/2 cells" in out.getvalue()

    def test_watch_missing_target_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no ledger"):
            watch(str(tmp_path / "nowhere"), once=True, out=io.StringIO())

    def test_watch_url_target_rejected_without_a_socket(self, monkeypatch):
        def no_socket(*args, **kwargs):
            raise AssertionError("repro watch opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        monkeypatch.setattr(socket, "create_connection", no_socket)
        with pytest.raises(ConfigurationError, match="no ledger"):
            watch("http://127.0.0.1:1/", once=True, out=io.StringIO())

    def test_cli_watch_once(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "sweep")
        run_cells(probes(2), workers=1, cache_dir=cache)
        assert main(["watch", cache, "--once"]) == 0
        assert "2/2 cells" in capsys.readouterr().out
