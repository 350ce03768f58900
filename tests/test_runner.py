"""The parallel experiment runner: sharding, seeds, ordering."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    Cell,
    default_workers,
    derive_seed,
    execute_cell,
    run_cells,
)


def probe_cell(seed: int, scale: float = 1.0) -> dict:
    """Deterministic toy cell; importable from worker processes."""
    return {"seed": seed, "value": seed * scale}


def failing_cell(seed: int) -> None:
    raise ValueError(f"cell {seed} exploded")


def interrupting_cell(seed: int) -> None:
    raise KeyboardInterrupt


class TestDeriveSeed:
    def test_stable_golden_value(self):
        # Pinned: if this changes, every recorded experiment digest
        # silently shifts meaning.
        assert derive_seed(9000, "scale", "baseline", 25, "suspend", 0) == (
            2639974939052086021
        )

    def test_coordinates_matter_worker_count_does_not(self):
        a = derive_seed(1, "s", 25, "kill", 0)
        b = derive_seed(1, "s", 25, "kill", 1)
        c = derive_seed(1, "s", 100, "kill", 0)
        assert len({a, b, c}) == 3
        # No argument anywhere encodes worker count or order: the same
        # coordinates always map to the same seed.
        assert a == derive_seed(1, "s", 25, "kill", 0)

    def test_seed_fits_in_63_bits(self):
        for rep in range(50):
            seed = derive_seed(7, "x", rep)
            assert 0 <= seed < 2**63


class TestCell:
    def test_make_sorts_params(self):
        cell = Cell.make("m", "f", zebra=1, alpha=2)
        assert cell.params == (("alpha", 2), ("zebra", 1))
        assert cell.kwargs == {"alpha": 2, "zebra": 1}

    def test_execute_by_module_path(self):
        cell = Cell.make("tests.test_runner", "probe_cell", seed=4, scale=2.0)
        assert execute_cell(cell) == {"seed": 4, "value": 8.0}


class TestRunCells:
    def cells(self, n=4):
        return [
            Cell.make("tests.test_runner", "probe_cell", seed=i) for i in range(n)
        ]

    def test_serial_order_preserved(self):
        results = run_cells(self.cells(), workers=1)
        assert [r["seed"] for r in results] == [0, 1, 2, 3]

    def test_parallel_identical_to_serial(self):
        serial = run_cells(self.cells(6), workers=1)
        parallel = run_cells(self.cells(6), workers=3)
        assert serial == parallel

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            run_cells(self.cells(), workers=0)

    def test_empty_cells(self):
        assert run_cells([], workers=4) == []

    def test_single_cell_skips_pool(self):
        assert run_cells(self.cells(1), workers=8)[0]["seed"] == 0

    def test_worker_exception_propagates(self):
        bad = [Cell.make("tests.test_runner", "failing_cell", seed=1)]
        with pytest.raises(ValueError, match="exploded"):
            run_cells(bad, workers=1)
        with pytest.raises(ValueError, match="exploded"):
            run_cells(bad + self.cells(2), workers=2)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_pool_sized_by_remaining_work_not_grid(self, tmp_path, monkeypatch):
        """A warm cache leaves 2 of 6 cells; asking for 8 workers must
        fork at most 2, not min(8, len(grid))."""
        import repro.experiments.supervisor as supervisor_mod

        cells = self.cells(6)
        cache = str(tmp_path / "sweep")
        run_cells(cells, workers=1, cache_dir=cache)
        from repro.experiments.runner import _cache_path

        os.remove(_cache_path(cache, cells[1]))
        os.remove(_cache_path(cache, cells[4]))

        seen = {}

        def fake_supervise(cell_list, todo, workers, *args, **kwargs):
            seen["workers"] = workers
            seen["todo"] = list(todo)
            from repro.experiments.supervisor import SweepResult

            results = [execute_cell(cell_list[i]) for i in todo]
            on_finish = kwargs.get("on_finish")
            if on_finish is not None:
                for position, index in enumerate(todo):
                    on_finish(index, results[position])
            return SweepResult(results, [], {})

        monkeypatch.setattr(supervisor_mod, "supervise_cells", fake_supervise)
        results = run_cells(cells, workers=8, cache_dir=cache)
        assert seen["workers"] == 2
        assert seen["todo"] == [1, 4]
        assert [r["seed"] for r in results] == [0, 1, 2, 3, 4, 5]

    def test_corrupt_cache_quarantined_with_warning(self, tmp_path, capsys):
        from repro.experiments.runner import _cache_path

        cells = self.cells(3)
        cache = str(tmp_path / "sweep")
        reference = run_cells(cells, workers=1, cache_dir=cache)
        path = _cache_path(cache, cells[1])
        with open(path, "wb") as fh:
            fh.write(b"\x80\x05garbage-truncated")
        assert run_cells(cells, workers=1, cache_dir=cache) == reference
        err = capsys.readouterr().err
        assert "corrupt cell cache" in err
        assert os.path.exists(f"{path}.corrupt")  # original preserved
        assert os.path.exists(path)  # re-run result re-cached

    def test_cache_from_another_source_tree_is_a_miss(
        self, tmp_path, monkeypatch, capsys
    ):
        """The cell key names a cell's inputs, not the code that ran
        it: a result cached by another source tree is re-computed."""
        import repro.checkpoint.core as checkpoint_core
        import repro.experiments.runner as runner_mod

        cells = self.cells(2)
        cache = str(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_core, "schema_fingerprint",
                          lambda: "oldtree")
            for cell in cells:
                runner_mod._cache_write(cache, cell, {"stale": True})
        ran = []

        def counting_execute(cell):
            ran.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(runner_mod, "execute_cell", counting_execute)
        assert run_cells(cells, workers=1, cache_dir=cache) == [
            probe_cell(0), probe_cell(1)
        ]
        assert ran == cells
        assert "written by another source tree" in capsys.readouterr().err
        # Re-cached under this tree's fingerprint: the next run hits.
        assert run_cells(cells, workers=1, cache_dir=cache) == [
            probe_cell(0), probe_cell(1)
        ]
        assert ran == cells
        assert capsys.readouterr().err == ""

    def test_keyboard_interrupt_flushes_manifest(self, tmp_path, capsys):
        """Ctrl-C mid-sweep: finished cells stay checkpointed and the
        manifest reflects them before the interrupt propagates."""
        cells = self.cells(2) + [
            Cell.make("tests.test_runner", "interrupting_cell", seed=0),
        ]
        cache = str(tmp_path / "sweep")
        with pytest.raises(KeyboardInterrupt):
            run_cells(cells, workers=1, cache_dir=cache)
        with open(os.path.join(cache, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["done"] == 2
        assert [e["done"] for e in manifest["cells"]] == [True, True, False]
        assert "interrupted" in capsys.readouterr().err
        # resuming with the same directory completes the healthy cells
        healthy = cells[:2]
        assert run_cells(healthy, workers=1, cache_dir=cache) == [
            probe_cell(0), probe_cell(1)
        ]
