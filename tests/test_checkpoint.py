"""The checkpoint subsystem: snapshot/restore round trips, forking,
version gating, file format and per-cell sweep caching.

The headline invariant under test is **replay identity**: a simulation
restored from a mid-flight checkpoint must finish event-for-event
identically to the run that wrote it -- same TraceLog digest, same
metrics, byte for byte.
"""

import json
import os

import pytest

from repro.checkpoint import (
    fork,
    load,
    read_header,
    restore,
    save,
    schema_fingerprint,
    snapshot,
    validate_header,
)
from repro.checkpoint.cells import CELL_DEFAULTS
from repro.checkpoint.core import FORMAT_VERSION, MAGIC, Checkpoint
from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
)
from repro.sim.engine import Simulation


class Ticker:
    """Self-rescheduling chain that records RNG draws into the trace.

    Module-level (not a closure) so it pickles; each fire draws from a
    named stream and stamps the value into the trace log, making the
    TraceLog digest sensitive to both event ordering *and* RNG state.
    """

    def __init__(self, sim, draws):
        self.sim = sim
        self.draws = draws
        self.values = []

    def __call__(self):
        value = round(self.sim.rng.stream("ticker").random(), 12)
        self.values.append(value)
        self.sim.trace_log.record(self.sim.now, "draw", value=value)
        if len(self.values) < self.draws:
            self.sim.schedule(1.0, self, label="tick")


def _build_ticker_sim(seed=7, draws=12):
    sim = Simulation(seed=seed, trace=True)
    ticker = Ticker(sim, draws)
    sim.schedule(1.0, ticker, label="tick")
    return sim, ticker


def _find_ticker(sim):
    """The restored sim's Ticker (reachable only through the heap)."""
    for _, _, handle in sim._heap:
        if isinstance(handle.callback, Ticker):
            return handle.callback
    raise AssertionError("no Ticker pending in restored simulation")


class TestEngineRoundTrip:
    def test_restored_run_replays_identically(self):
        sim, ticker = _build_ticker_sim()
        sim.run(until=4.5)
        checkpoint = snapshot(sim)
        sim.run()  # the unbroken reference finishes first

        restored = restore(checkpoint)
        assert restored.now == 4.5
        restored.run()

        assert restored.trace_log.digest() == sim.trace_log.digest()
        assert restored.events_fired == sim.events_fired
        assert restored.now == sim.now

    def test_restore_twice_yields_disjoint_simulations(self):
        sim, _ = _build_ticker_sim()
        sim.run(until=3.5)
        checkpoint = snapshot(sim)
        first, second = restore(checkpoint), restore(checkpoint)
        first.run()
        assert second.pending_events > 0  # untouched by first's run
        second.run()
        assert first.trace_log.digest() == second.trace_log.digest()

    def test_snapshot_does_not_perturb_the_running_sim(self):
        sim, ticker = _build_ticker_sim()
        sim.run(until=4.5)
        before = (sim.now, sim.pending_events, sim.events_fired,
                  sim.heap_size, list(ticker.values))
        snapshot(sim)
        after = (sim.now, sim.pending_events, sim.events_fired,
                 sim.heap_size, list(ticker.values))
        assert before == after

    def test_deferred_reschedule_survives_round_trip(self):
        # A deferred handle's heap entry is stale by design (lazy
        # cancellation); the restore path must re-point it or the
        # event fires at its *old* time.
        sim = Simulation(seed=1, trace=True)
        ticker = Ticker(sim, 3)
        handle = sim.schedule(2.0, ticker, label="tick")
        sim.reschedule(handle, 6.0)
        restored = restore(snapshot(sim))
        sim.run()
        restored.run()
        assert restored.trace_log.digest() == sim.trace_log.digest()

    def test_unpicklable_state_raises_snapshot_error(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)  # closures cannot persist
        with pytest.raises(SnapshotError, match="not picklable"):
            snapshot(sim)

    def test_snapshot_at_fires_as_a_labelled_event(self, tmp_path):
        path = str(tmp_path / "mid.ck")
        sim, _ = _build_ticker_sim()
        sim.snapshot_at(4.5, path)
        sim.run()
        assert os.path.exists(path)
        header = read_header(path)
        assert header["layers"]["engine"]["now"] == 4.5


class TestForking:
    def test_branches_share_history_and_diverge_after(self):
        sim, ticker = _build_ticker_sim(draws=20)
        sim.run(until=8.5)
        prefix = list(ticker.values)
        checkpoint = snapshot(sim)

        branches = fork(checkpoint, 3)
        tickers = [_find_ticker(branch) for branch in branches]
        for branch in branches:
            branch.run()

        for branch_ticker in tickers:
            assert branch_ticker.values[: len(prefix)] == prefix
        suffixes = {tuple(t.values[len(prefix):]) for t in tickers}
        assert len(suffixes) == len(tickers)  # independent futures

    def test_vary_mutates_each_branch_in_process(self):
        sim, _ = _build_ticker_sim()
        sim.run(until=2.5)
        checkpoint = snapshot(sim)

        def shorten(branch, index):  # closures are fine here
            _find_ticker(branch).draws = 5 + index

        branches = fork(checkpoint, 2, vary=shorten)
        assert [_find_ticker(b).draws for b in branches] == [5, 6]

    def test_fork_requires_a_branch(self):
        sim, _ = _build_ticker_sim()
        with pytest.raises(SnapshotError):
            fork(snapshot(sim), 0)


class TestFileFormat:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "sim.ck")
        sim, _ = _build_ticker_sim()
        sim.run(until=3.5)
        save(sim, path)
        checkpoint = load(path)
        sim.run()
        restored = restore(checkpoint)
        restored.run()
        assert restored.trace_log.digest() == sim.trace_log.digest()

    def test_header_readable_without_unpickling(self, tmp_path):
        path = str(tmp_path / "sim.ck")
        sim, _ = _build_ticker_sim(seed=11)
        sim.run(until=2.5)
        save(sim, path, meta={"kind": "ticker"})
        header = read_header(path)
        assert header["format"] == FORMAT_VERSION
        assert header["schema"] == schema_fingerprint()
        assert header["meta"] == {"kind": "ticker"}
        assert header["layers"]["rng"]["master_seed"] == 11
        assert header["layers"]["engine"]["pending_events"] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "not.ck")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError):
            read_header(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.ck")
        sim, _ = _build_ticker_sim()
        save(sim, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:6])
        with pytest.raises(SnapshotFormatError):
            load(path)

    def test_truncated_payload_fails_at_restore(self, tmp_path):
        path = str(tmp_path / "trunc.ck")
        sim, _ = _build_ticker_sim()
        save(sim, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="corrupt"):
            restore(load(path))

    def test_format_version_mismatch_rejected(self):
        header = {"format": FORMAT_VERSION + 1,
                  "schema": schema_fingerprint()}
        with pytest.raises(SnapshotVersionError, match="format"):
            validate_header(header)

    def test_schema_drift_rejected(self):
        sim, _ = _build_ticker_sim()
        checkpoint = snapshot(sim)
        stale = Checkpoint(
            header={**checkpoint.header, "schema": "0" * 16},
            payload=checkpoint.payload,
        )
        with pytest.raises(SnapshotVersionError, match="schema"):
            restore(stale)

    def test_magic_prefixes_the_file(self, tmp_path):
        path = str(tmp_path / "sim.ck")
        sim, _ = _build_ticker_sim()
        save(sim, path)
        with open(path, "rb") as fh:
            assert fh.read(4) == MAGIC


class TestRepresentativeCells:
    """One full snapshot->restore->replay per stateful stack.

    These are the acceptance cells: the restored finish must agree
    with the unbroken finish on the TraceLog digest and every metric.
    """

    @pytest.mark.parametrize("kind", sorted(CELL_DEFAULTS))
    def test_resume_matches_unbroken_run(self, kind, tmp_path):
        from repro.checkpoint.cells import checkpoint_cell, resume_cell

        path = str(tmp_path / f"{kind}.ck")
        unbroken = checkpoint_cell(kind, path)
        resumed = resume_cell(path)
        assert resumed == unbroken
        assert "trace_digest" in resumed

    def test_unknown_cell_kind_rejected(self):
        from repro.checkpoint.cells import build_cell
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown"):
            build_cell("fig999")


class TestSweepCaching:
    """run_cells per-cell checkpointing: kill/resume a sweep."""

    def _cells(self):
        from repro.experiments.runner import Cell

        return [
            Cell.make("repro.experiments.runner", "derive_seed",
                      base_seed=base)
            for base in range(5)
        ]

    def test_killed_sweep_resumes_identically(self, tmp_path):
        from repro.experiments.runner import (
            _cache_path,
            cell_key,
            run_cells,
        )

        cells = self._cells()
        cache = str(tmp_path / "sweep")
        reference = run_cells(cells, cache_dir=cache)
        # simulate a mid-sweep kill: two results never got written
        os.remove(_cache_path(cache, cell_key(cells[1])))
        os.remove(_cache_path(cache, cell_key(cells[3])))
        resumed = run_cells(cells, cache_dir=cache)
        assert resumed == reference
        assert run_cells(cells) == reference  # cache off: same values

    def test_manifest_inventories_the_sweep(self, tmp_path):
        from repro.experiments.runner import run_cells

        cache = str(tmp_path / "sweep")
        run_cells(self._cells(), cache_dir=cache)
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["total"] == 5
        assert manifest["done"] == 5
        assert all(entry["done"] for entry in manifest["cells"])

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        from repro.experiments.runner import _cache_path, cell_key, run_cells

        cells = self._cells()
        cache = str(tmp_path / "sweep")
        reference = run_cells(cells, cache_dir=cache)
        with open(_cache_path(cache, cell_key(cells[2])), "wb") as fh:
            fh.write(b"garbage")
        assert run_cells(cells, cache_dir=cache) == reference

    def test_cache_distinguishes_params(self, tmp_path):
        from repro.experiments.runner import Cell, cell_key

        a = Cell.make("m", "f", seed=1)
        b = Cell.make("m", "f", seed=2)
        assert cell_key(a) != cell_key(b)
        assert cell_key(a) == cell_key(Cell.make("m", "f", seed=1))
