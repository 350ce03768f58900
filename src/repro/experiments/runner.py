"""Parallel experiment runner.

Every experiment in this repository is a grid of independent *cells*
-- one simulated run per (scenario x primitive x seed) point -- and
simulations share nothing, so the grid shards perfectly across worker
processes.  This module is the one place that fan-out lives:

* a :class:`Cell` names a top-level function by module path plus the
  keyword arguments of one run, so cells pickle as plain strings and
  survive any multiprocessing start method;
* :func:`derive_seed` hashes the cell's coordinates into its seed, so
  a cell's randomness depends only on *what* it is, never on *which
  worker* runs it or in what order;
* :func:`run_cells` executes a cell list either serially in-process
  (``workers=1``) or sharded over *supervised* worker processes
  (:mod:`repro.experiments.supervisor`), returning results in cell
  order either way.

Because cells are pure functions of their arguments and results are
re-assembled in grid order, a parallel run is **bit-identical** to the
serial run -- the determinism test suite asserts exactly that, and the
CLI exposes the knob as ``repro run <experiment> --workers N``.  The
supervised pool survives worker crashes, hangs and corrupt results:
failed cells are retried deterministically and poison cells are
quarantined instead of aborting the sweep (``--max-retries``,
``--cell-timeout``, ``--chaos``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, QuarantineError

#: hard cap so a typo'd ``--workers 4000`` does not fork-bomb the host
MAX_WORKERS = 64

#: live progress to stderr (module-level so the CLI can flip it once
#: for every study a command runs); stdout artifacts never change
_progress_enabled = False

#: per-cell result cache directory (module-level for the same reason
#: as progress: the CLI flips it once per command); None = no caching
_cell_cache_dir: Optional[str] = None


def set_progress(enabled: bool) -> None:
    """Enable/disable per-cell progress lines on stderr.

    Off by default (library callers and tests see no output); the CLI
    turns it on for interactive runs and ``--quiet`` turns it back
    off.  Progress is *reporting only* -- cell results are identical
    either way.
    """
    global _progress_enabled
    _progress_enabled = bool(enabled)


def progress_enabled() -> bool:
    """Current progress-reporting state."""
    return _progress_enabled


def set_cell_cache(directory: Optional[str]) -> None:
    """Persist every finished cell's result under ``directory``.

    With a cache set, :func:`run_cells` writes each cell's result to
    ``<dir>/<cell_key>.pkl`` the moment it finishes and skips cells
    whose result file already exists -- so a killed ``--workers`` sweep
    restarted with the same cache directory re-runs only the missing
    cells, and the reassembled result list is identical to an
    uninterrupted run (cells are pure functions of their params).
    ``None`` disables caching.
    """
    global _cell_cache_dir
    _cell_cache_dir = directory


#: explicit run-ledger file path; None = derive from the cache dir
#: (``<cache>/ledger.jsonl``) or no file at all
_ledger_path_override: Optional[str] = None


def set_ledger(path: Optional[str]) -> None:
    """Write the sweep's run ledger to an explicit file.

    Without an override the ledger rides the cell cache
    (``<checkpoint-dir>/ledger.jsonl``); this knob exists for sweeps
    that want live observation (``repro run --serve``) without result
    caching.  Like every observation hook, the ledger never alters
    results -- the differential suite pins ledger-on == ledger-off.
    """
    global _ledger_path_override
    _ledger_path_override = path


def ledger_override() -> Optional[str]:
    """The explicit ledger path (None = derive or disable)."""
    return _ledger_path_override


def cell_cache_dir() -> Optional[str]:
    """Current cell-cache directory (None = caching off)."""
    return _cell_cache_dir


#: sweep-supervision overrides (module-level for the same reason as
#: progress/cache: the CLI flips them once per command); empty = the
#: supervisor's defaults
_supervision: Dict[str, Any] = {}


def set_supervision(
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    chaos_seed: Optional[int] = None,
    snapshot_every: Optional[float] = None,
) -> None:
    """Configure how :func:`run_cells` supervises its worker shards.

    Only non-None knobs override the
    :class:`~repro.experiments.supervisor.SupervisorConfig` defaults;
    calling with no arguments resets to them.  ``chaos_seed`` arms the
    deterministic chaos harness: a seeded
    :class:`~repro.experiments.chaos.ChaosPlan` is built over the
    sweep's cell keys and injected into every worker (results are
    still byte-identical to an undisturbed run -- that is the point).
    """
    global _supervision
    knobs = {
        "max_retries": max_retries,
        "cell_timeout": cell_timeout,
        "chaos_seed": chaos_seed,
        "snapshot_every": snapshot_every,
    }
    _supervision = {k: v for k, v in knobs.items() if v is not None}


def supervision_overrides() -> Dict[str, Any]:
    """The active supervision overrides (empty = defaults)."""
    return dict(_supervision)


def cell_key(cell: "Cell") -> str:
    """Stable content address of one cell: its module, function and
    params (the same coordinates that derive its seed)."""
    payload = repr((cell.module, cell.func, cell.params))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


#: params worth echoing in a progress line, in display order
_LABEL_KEYS = ("scenario", "mode", "primitive", "primitive_name",
               "progress_at_launch", "trackers", "num_jobs", "seed")


def _cell_label(cell: "Cell") -> str:
    """Compact human label for one cell's progress lines."""
    params = cell.kwargs
    parts = [f"{key}={params[key]}" for key in _LABEL_KEYS if key in params]
    module = cell.module.rsplit(".", 1)[-1]
    return f"{module}.{cell.func}({', '.join(parts)})"


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def default_workers() -> int:
    """A sensible pool size: the machine's cores, capped."""
    return min(os.cpu_count() or 1, MAX_WORKERS)


def derive_seed(base_seed: int, *coordinates: Any) -> int:
    """A 63-bit seed derived from ``base_seed`` and cell coordinates.

    SHA-256 over the stringified coordinates, so the mapping is stable
    across processes, Python versions and platforms (unlike ``hash``).
    Worker count and execution order never enter the derivation --
    that is the whole trick behind serial/parallel equality.
    """
    payload = ":".join(str(part) for part in (base_seed, *coordinates))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Cell:
    """One executable grid point.

    ``module``/``func`` name a *top-level* function importable in any
    worker process; ``params`` are its keyword arguments as a sorted
    tuple of pairs (kept a tuple so cells stay hashable and pickle
    small).
    """

    module: str
    func: str
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def make(cls, module: str, func: str, **params: Any) -> "Cell":
        return cls(module=module, func=func, params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The cell's keyword arguments as a dict."""
        return dict(self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"Cell({self.module}.{self.func}({inner}))"


def execute_cell(cell: Cell) -> Any:
    """Run one cell in the current process."""
    fn = getattr(importlib.import_module(cell.module), cell.func)
    return fn(**cell.kwargs)


def _cache_path(directory: str, cell: Cell) -> str:
    return os.path.join(directory, cell_key(cell) + ".pkl")


def _cache_read(directory: str, cell: Cell) -> Tuple[bool, Any]:
    """(hit, result) for one cell.

    A missing file is a plain miss; a file that *exists* but does not
    unpickle (truncated by a crash mid-write outside the atomic path,
    bit-rotted, wrong format) is quarantined to ``<key>.pkl.corrupt``
    with a stderr warning and treated as a miss -- the cell re-runs
    instead of the sweep crashing on its own cache.  A result written
    by another source tree (another
    :func:`~repro.checkpoint.core.schema_fingerprint`) is a miss too,
    with a note but no quarantine: the cell key names the inputs, not
    the code that computed the result.
    """
    from repro.checkpoint.core import schema_fingerprint

    path = _cache_path(directory, cell)
    try:
        fh = open(path, "rb")
    except OSError:
        return False, None
    try:
        with fh:
            entry = pickle.load(fh)
        schema, result = entry["schema"], entry["result"]
    except Exception as exc:
        quarantine = f"{path}.corrupt"
        try:
            os.replace(path, quarantine)
            where = f"; moved to {quarantine}"
        except OSError:
            where = ""
        print(
            f"warning: corrupt cell cache {path} ({exc!r}); treating as "
            f"a miss and re-running the cell{where}",
            file=sys.stderr,
        )
        return False, None
    if schema != schema_fingerprint():
        print(
            f"note: cell cache {path} was written by another source tree "
            f"(schema {schema}); re-running the cell",
            file=sys.stderr,
        )
        return False, None
    return True, result


def _cache_write(directory: str, cell: Cell, result: Any) -> None:
    """Atomic (tmp + rename) result write, so a kill mid-write never
    leaves a half-cached cell behind.  The entry carries the source
    tree's schema fingerprint next to the result."""
    from repro.checkpoint.core import schema_fingerprint

    path = _cache_path(directory, cell)
    tmp = f"{path}.tmp.{os.getpid()}"
    entry = {"schema": schema_fingerprint(), "result": result}
    with open(tmp, "wb") as fh:
        pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def _write_manifest(
    directory: str,
    cell_list: List[Cell],
    quarantined: Optional[List[Any]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> None:
    """Human-readable sweep inventory: every cell's key, label and
    completion state (``repro resume <dir>`` reports from this).

    A supervised sweep also records its quarantined poison cells (per
    cell: attempts and failure causes) and the supervisor's counters
    (retries, worker deaths, timeouts, ...), so a chaos or crash story
    is reconstructable from the manifest alone.
    """
    by_index = {
        record.index: record for record in (quarantined or [])
    }
    entries = []
    for index, cell in enumerate(cell_list):
        entry = {
            "key": cell_key(cell),
            "label": _cell_label(cell),
            "done": os.path.exists(_cache_path(directory, cell)),
        }
        record = by_index.get(index)
        if record is not None:
            entry["quarantined"] = True
            entry["attempts"] = record.attempts
            entry["causes"] = list(record.causes)
        entries.append(entry)
    manifest = {
        "total": len(entries),
        "done": sum(1 for e in entries if e["done"]),
        "quarantined": len(by_index),
        "cells": entries,
    }
    if stats is not None:
        manifest["supervisor"] = dict(stats)
    tmp = os.path.join(directory, f"manifest.json.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(tmp, os.path.join(directory, "manifest.json"))


def _build_supervision(cell_list: List[Cell]):
    """The sweep's :class:`SupervisorConfig` from the module-level
    overrides (None when no override is active)."""
    if not _supervision:
        return None
    from repro.experiments.supervisor import SupervisorConfig

    kwargs: Dict[str, Any] = {
        key: _supervision[key]
        for key in ("max_retries", "cell_timeout", "snapshot_every")
        if key in _supervision
    }
    chaos_seed = _supervision.get("chaos_seed")
    if chaos_seed is not None:
        from repro.experiments.chaos import seeded_plan

        kwargs["chaos"] = seeded_plan(
            [cell_key(cell) for cell in cell_list], chaos_seed
        )
        # A seeded plan may hang workers; a hung cell needs a
        # wall-clock budget to be detectable at all.
        kwargs.setdefault("cell_timeout", 600.0)
    return SupervisorConfig(**kwargs)


def _grid_digest(cell_list: List[Cell]) -> str:
    """Content address of the whole grid (sweep-start identity)."""
    h = hashlib.sha256()
    for cell in cell_list:
        h.update(cell_key(cell).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:24]


def cell_cost(result: Any) -> float:
    """A cell's *virtual cost*: its simulation's fired-event count
    when the result reports one, else 1.0.  Weights the observatory's
    throughput/ETA math so heavy cells count for what they cost."""
    if isinstance(result, dict):
        try:
            cost = float(result.get("events", 1.0))
        except (TypeError, ValueError):
            return 1.0
        return cost if cost > 0 else 1.0
    return 1.0


def _open_ledger(directory: Optional[str]):
    """The sweep's :class:`~repro.obs.ledger.Ledger`, or None.

    A file sink is attached when an explicit path was set
    (:func:`set_ledger`) or a cache directory is active (the ledger
    then lives at ``<dir>/ledger.jsonl``); a console renderer is
    subscribed when progress is enabled.  With neither, there is no
    ledger at all -- zero overhead for bare library sweeps.
    """
    from repro.obs.ledger import ledger_path as _ledger_path

    path = _ledger_path_override or (
        _ledger_path(directory) if directory else None
    )
    if path is None and not _progress_enabled:
        return None
    from repro.obs.ledger import Ledger

    try:
        ledger = Ledger(path)
    except OSError as exc:
        print(
            f"warning: cannot open run ledger {path} ({exc}); "
            "running unobserved",
            file=sys.stderr,
        )
        if not _progress_enabled:
            return None
        ledger = Ledger(None)
    if _progress_enabled:
        from repro.obs.console import ConsoleRenderer

        ledger.subscribe(ConsoleRenderer())
    return ledger


def run_cells(
    cells: Iterable[Cell],
    workers: int = 1,
    chunksize: int = 1,  # kept for API compatibility; dispatch is
    #                      per-cell under supervision
    cache_dir: Optional[str] = None,
    supervise=None,
    on_quarantine: str = "raise",
) -> List[Any]:
    """Execute every cell; results come back in cell order.

    ``workers <= 1`` runs serially in-process (no pool, no pickling);
    more workers shard the list over *supervised* worker processes
    (:mod:`repro.experiments.supervisor`): crashed, hung or
    garbage-emitting workers are detected, their cells retried
    deterministically, and poison cells quarantined so the rest of the
    sweep still completes.  Either way the returned list lines up
    index-for-index with the input cells, and because each cell's seed
    is derived from its coordinates (see :func:`derive_seed`) the
    values are identical for any ``workers`` -- crashes, retries and
    chaos included.

    ``cache_dir`` (or the module-level :func:`set_cell_cache`) turns on
    per-cell checkpointing: finished results persist immediately and
    already-persisted cells are loaded instead of re-run, so a killed
    sweep resumed with the same directory completes with identical
    results.  A ``KeyboardInterrupt`` mid-sweep flushes the manifest
    before re-raising -- Ctrl-C never loses completed cells.

    ``supervise`` (a :class:`~repro.experiments.supervisor.\
SupervisorConfig`) overrides the module-level supervision knobs; with
    quarantined cells, ``on_quarantine="raise"`` (default) raises
    :class:`~repro.errors.QuarantineError` *after* the sweep completes
    and persists, while ``"keep"`` leaves ``None`` at their indices.
    """
    cell_list = list(cells)
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if on_quarantine not in ("raise", "keep"):
        raise ConfigurationError(
            f"on_quarantine must be 'raise' or 'keep', got {on_quarantine!r}"
        )
    total = len(cell_list)
    directory = cache_dir if cache_dir is not None else _cell_cache_dir
    results: List[Any] = [None] * total
    todo = list(range(total))
    if directory:
        os.makedirs(directory, exist_ok=True)
        todo = []
        for index, cell in enumerate(cell_list):
            hit, value = _cache_read(directory, cell)
            if hit:
                results[index] = value
            else:
                todo.append(index)
        # Written before running (not just after) so a sweep killed
        # mid-flight still leaves an inventory `repro resume <dir>`
        # can report from.
        _write_manifest(directory, cell_list)
    # A warm cache leaves fewer cells than the grid: size the pool by
    # the *remaining* work so a nearly finished sweep does not fork a
    # fleet of idle workers.
    workers = min(workers, MAX_WORKERS, max(len(todo), 1))
    config = supervise if supervise is not None else _build_supervision(
        cell_list
    )

    ledger = _open_ledger(directory)

    # Manifest freshness: quarantine records and supervisor counters
    # surface through ledger events *as they happen*, so the manifest
    # on disk is accurate after every cell -- a SIGKILLed parent can no
    # longer leave a stale inventory behind.
    live_quarantined: List[Any] = []
    live_stats: Dict[str, int] = {}

    def flush_manifest() -> None:
        if directory:
            _write_manifest(
                directory, cell_list,
                quarantined=live_quarantined,
                stats=live_stats or None,
            )

    if ledger is not None:

        def track(record: Dict[str, Any]) -> None:
            event = record.get("event")
            if event == "cell-quarantine":
                from repro.experiments.supervisor import QuarantineRecord

                live_quarantined.append(QuarantineRecord(
                    index=int(record["index"]),
                    key=record.get("key", ""),
                    label=record.get("label", ""),
                    attempts=int(record.get("attempts", 0)),
                    causes=list(record.get("causes", [])),
                ))
                flush_manifest()
            elif event == "counters":
                live_stats.update(record.get("counters") or {})

        ledger.subscribe(track)

    def emit(event: str, **fields: Any) -> None:
        if ledger is not None:
            ledger.emit(event, **fields)

    def finish(index: int, result: Any) -> None:
        results[index] = result
        if directory:
            _cache_write(directory, cell_list[index], result)
            flush_manifest()

    emit(
        "sweep-start",
        total=total,
        workers=workers,
        cached=total - len(todo),
        grid_digest=_grid_digest(cell_list),
        experiment=(
            f"{cell_list[0].module.rsplit('.', 1)[-1]}.{cell_list[0].func}"
            if cell_list else None
        ),
        ledger_path=ledger.path if ledger is not None else None,
        supervised=config is not None or (workers > 1 and len(todo) > 1),
        cells=[
            {"index": i, "key": cell_key(c), "label": _cell_label(c)}
            for i, c in enumerate(cell_list)
        ],
    )
    if directory:
        todo_set = set(todo)
        for index in range(total):
            if index not in todo_set:
                emit("cell-cached", index=index,
                     key=cell_key(cell_list[index]))

    quarantined: List[Any] = []
    stats: Optional[Dict[str, int]] = None
    try:
        if len(todo) <= 1 or (workers <= 1 and config is None):
            for index in todo:
                cell = cell_list[index]
                emit("cell-start", index=index, key=cell_key(cell),
                     label=_cell_label(cell), attempt=0)
                started = time.perf_counter()
                result = execute_cell(cell)
                finish(index, result)
                emit(
                    "cell-finish", index=index, key=cell_key(cell),
                    label=_cell_label(cell), attempt=0,
                    duration_s=round(time.perf_counter() - started, 3),
                    cost=cell_cost(result),
                    sketch=(
                        result.get("sketch")
                        if isinstance(result, dict) else None
                    ),
                )
        else:
            from repro.experiments.supervisor import (
                SupervisorConfig,
                supervise_cells,
            )

            sweep = supervise_cells(
                cell_list,
                todo,
                workers,
                config or SupervisorConfig(),
                cache_dir=directory,
                on_finish=finish,
                ledger=ledger,
            )
            quarantined = sweep.quarantined
            stats = sweep.stats
            live_stats.update(stats)
    except KeyboardInterrupt:
        # Every finished cell is already persisted (finish() writes
        # through); refresh the manifest so `repro resume <dir>` sees
        # the true completion state, then let the interrupt fly.
        if directory:
            flush_manifest()
            print(
                f"interrupted: completed cells are checkpointed in "
                f"{directory}; re-run with the same directory to finish",
                file=sys.stderr,
            )
        raise
    else:
        emit(
            "sweep-finish",
            done=sum(1 for r in results if r is not None),
            total=total,
            quarantined=len(quarantined),
            counters=stats,
        )
    finally:
        if ledger is not None:
            ledger.close()
    if directory:
        _write_manifest(directory, cell_list, quarantined=quarantined,
                        stats=stats)
    if quarantined and on_quarantine == "raise":
        names = "; ".join(
            f"{record.label} after {record.attempts} attempt(s): "
            f"{record.causes[-1] if record.causes else 'unknown'}"
            for record in quarantined
        )
        where = f" (manifest: {os.path.join(directory, 'manifest.json')})" \
            if directory else ""
        raise QuarantineError(
            f"{len(quarantined)} poison cell(s) quarantined after the "
            f"sweep completed{where}: {names}",
            records=quarantined,
        )
    return results
