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
  order either way;
* a :class:`SweepOptions` holds everything about *how* a sweep runs
  (workers, result cache, progress, ledger, supervision, chaos); every
  runner that sweeps takes one as ``sweep``, and this module keeps no
  configuration of its own.

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
from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple,
)

from repro.errors import ConfigurationError, QuarantineError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.experiments.supervisor import SupervisorConfig

#: hard cap so a typo'd ``--workers 4000`` does not fork-bomb the host
MAX_WORKERS = 64

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


def _cache_path(directory: str, key: str) -> str:
    return os.path.join(directory, key + ".pkl")


def _cache_read(directory: str, key: str) -> Tuple[bool, Any]:
    """(hit, result) for the cell whose :func:`cell_key` is ``key``.

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

    path = _cache_path(directory, key)
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


def cache_is_current(directory: str, key: str) -> bool:
    """Would :func:`_cache_read` hit ``key``?  Read-only: a missing,
    corrupt or other-tree cache file is simply not current, and is
    neither quarantined nor reported."""
    from repro.checkpoint.core import schema_fingerprint

    try:
        with open(_cache_path(directory, key), "rb") as fh:
            return pickle.load(fh)["schema"] == schema_fingerprint()
    except Exception:
        # Missing or unreadable in any way: _cache_read would miss (and
        # quarantine a corrupt file), so the cell is not done.
        return False


def _cache_write(directory: str, key: str, result: Any) -> None:
    """Atomic (tmp + rename) result write, so a kill mid-write never
    leaves a half-cached cell behind.  The entry carries the source
    tree's schema fingerprint next to the result."""
    from repro.checkpoint.core import schema_fingerprint

    path = _cache_path(directory, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    entry = {"schema": schema_fingerprint(), "result": result}
    with open(tmp, "wb") as fh:
        pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def _indented(value: Any, depth: int) -> str:
    """``value`` as ``json.dump(indent=2)`` writes it ``depth`` levels
    deep (JSON strings hold no raw newline, so re-indenting is exact)."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


#: the tails of a pre-encoded cell entry before and after it is done
_UNDONE, _DONE = 'false\n    }', 'true\n    }'
#: one cell entry without quarantine fields, pre-encoded at list depth
_ENTRY = '    {\n      "key": %s,\n      "label": %s,\n      "done": ' + _UNDONE


class _Manifest:
    """Human-readable sweep inventory, ``<dir>/manifest.json``: every
    cell's key, label and completion state (``repro resume <dir>``
    reports from this).

    A supervised sweep also records its quarantined poison cells (per
    cell: attempts and failure causes) and the supervisor's counters
    (retries, worker deaths, timeouts, ...), so a chaos or crash story
    is reconstructable from the manifest alone.

    The file is exactly what ``json.dump(manifest, fh, indent=2)``
    writes, but each cell's entry is encoded once per sweep and a cell
    is done once its key is cached (:meth:`mark_done`), so a flush
    costs one join, not a re-encode and a cache ``stat`` per cell.
    Only quarantined entries and the supervisor block are encoded per
    flush.
    """

    def __init__(self, directory: str, keys: List[str], labels: List[str]):
        self.directory = directory
        self.keys = keys
        self.labels = labels
        self._parts = [
            _ENTRY % (json.dumps(key), json.dumps(label))
            for key, label in zip(keys, labels)
        ]
        self._indices: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            self._indices.setdefault(key, []).append(index)
        self._done_keys: Set[str] = set()
        self._done = 0

    def mark_done(self, index: int) -> None:
        """The result of cell ``index`` is cached: every cell sharing
        its key is done."""
        key = self.keys[index]
        if key in self._done_keys:
            return
        self._done_keys.add(key)
        for same in self._indices[key]:
            self._parts[same] = self._parts[same][:-len(_UNDONE)] + _DONE
            self._done += 1

    def flush(
        self,
        quarantined: Iterable[Any] = (),
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        """Atomically (tmp + rename) rewrite the manifest."""
        by_index = {record.index: record for record in quarantined}
        parts = self._parts
        if by_index:
            parts = list(parts)
            for index, record in by_index.items():
                entry = {
                    "key": self.keys[index],
                    "label": self.labels[index],
                    "done": self.keys[index] in self._done_keys,
                    "quarantined": True,
                    "attempts": record.attempts,
                    "causes": list(record.causes),
                }
                parts[index] = "    " + _indented(entry, 2)
        cells = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
        text = (
            f'{{\n  "total": {len(parts)},\n  "done": {self._done},\n'
            f'  "quarantined": {len(by_index)},\n  "cells": {cells}'
        )
        if stats is not None:
            text += ',\n  "supervisor": ' + _indented(dict(stats), 1)
        text += "\n}"
        tmp = os.path.join(self.directory, f"manifest.json.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(self.directory, "manifest.json"))


def _grid_digest(keys: List[str]) -> str:
    """Content address of the whole grid (sweep-start identity) from
    its cell keys."""
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode("utf-8"))
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


def _open_ledger(cache_dir: Optional[str], progress: bool):
    """The sweep's :class:`~repro.obs.ledger.Ledger`, or None.

    A file sink at ``<cache_dir>/ledger.jsonl`` is attached when
    ``cache_dir`` is set; a console renderer is subscribed when
    ``progress`` is on.  With neither, there is no ledger at all --
    zero overhead for bare library sweeps.
    """
    if not cache_dir and not progress:
        return None
    from repro.obs.ledger import Ledger, ledger_path

    path = ledger_path(cache_dir) if cache_dir else None
    try:
        ledger = Ledger(path)
    except OSError as exc:
        print(
            f"warning: cannot open run ledger {path} ({exc}); "
            "running unobserved",
            file=sys.stderr,
        )
        if not progress:
            return None
        ledger = Ledger(None)
    if progress:
        from repro.obs.console import ConsoleRenderer

        ledger.subscribe(ConsoleRenderer())
    return ledger


def _with_chaos(
    config: Optional["SupervisorConfig"], keys: List[str], chaos_seed: int
) -> "SupervisorConfig":
    """``config`` (or the defaults) armed with the seeded chaos plan
    over the sweep's cell ``keys``."""
    from repro.experiments.chaos import seeded_plan
    from repro.experiments.supervisor import SupervisorConfig

    config = config or SupervisorConfig()
    return replace(
        config,
        chaos=seeded_plan(keys, chaos_seed),
        # A seeded plan may hang workers; a hung cell needs a
        # wall-clock budget to be detectable at all.
        cell_timeout=(
            600.0 if config.cell_timeout is None else config.cell_timeout
        ),
    )


@dataclass(frozen=True)
class SweepOptions:
    """How one sweep runs -- never what it computes.

    Every runner that fans a grid out through :func:`run_cells` takes
    one of these as ``sweep``; the defaults are a bare serial sweep
    with no cache, no output and no supervision.  Results are
    identical for any value of any field.

    * ``workers`` -- shard the grid over that many supervised worker
      processes (1 = serial, in-process);
    * ``cache_dir`` -- persist each finished cell's result as
      ``<dir>/<cell_key>.pkl`` (plus ``manifest.json`` and
      ``ledger.jsonl``) and load cached cells instead of re-running
      them, so a killed sweep restarted with the same directory
      re-runs only the missing cells;
    * ``progress`` -- per-cell progress lines on stderr;
    * ``supervise`` -- the
      :class:`~repro.experiments.supervisor.SupervisorConfig` (retries,
      timeouts, mid-cell snapshots); setting it supervises even a
      one-worker sweep;
    * ``chaos_seed`` -- inject the seeded
      :class:`~repro.experiments.chaos.ChaosPlan` over the sweep's cell
      keys (its hangs get a 600 s ``cell_timeout`` unless one is set).
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    progress: bool = False
    supervise: Optional["SupervisorConfig"] = None
    chaos_seed: Optional[int] = None

    def run(
        self, cells: Iterable["Cell"], on_quarantine: str = "raise"
    ) -> List[Any]:
        """:func:`run_cells` over ``cells`` with these options."""
        options = {f.name: getattr(self, f.name) for f in fields(self)}
        return run_cells(cells, on_quarantine=on_quarantine, **options)


def run_cells(
    cells: Iterable[Cell],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    supervise: Optional["SupervisorConfig"] = None,
    on_quarantine: str = "raise",
    progress: bool = False,
    chaos_seed: Optional[int] = None,
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

    ``cache_dir`` turns on per-cell checkpointing: finished results
    persist immediately and already-persisted cells are loaded instead
    of re-run, so a killed sweep resumed with the same directory
    completes with identical results.  A ``KeyboardInterrupt``
    mid-sweep flushes the manifest before re-raising -- Ctrl-C never
    loses completed cells.

    ``workers``, ``cache_dir``, ``supervise``, ``progress`` and
    ``chaos_seed`` are the fields of
    :class:`SweepOptions` (:meth:`SweepOptions.run` passes them all).
    With quarantined cells, ``on_quarantine="raise"`` (default) raises
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
    # The sweep's one key/label table: every manifest flush, ledger
    # event, cache path and chaos plan reads it.
    keys = [cell_key(cell) for cell in cell_list]
    labels = [_cell_label(cell) for cell in cell_list]
    results: List[Any] = [None] * total
    todo = list(range(total))
    manifest: Optional[_Manifest] = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        manifest = _Manifest(cache_dir, keys, labels)
        todo = []
        for index, key in enumerate(keys):
            hit, value = _cache_read(cache_dir, key)
            if hit:
                results[index] = value
                manifest.mark_done(index)
            else:
                todo.append(index)
        # Written before running (not just after) so a sweep killed
        # mid-flight still leaves an inventory `repro resume <dir>`
        # can report from.
        manifest.flush()
    # A warm cache leaves fewer cells than the grid: size the pool by
    # the *remaining* work so a nearly finished sweep does not fork a
    # fleet of idle workers.
    workers = min(workers, MAX_WORKERS, max(len(todo), 1))
    if chaos_seed is not None:
        supervise = _with_chaos(supervise, keys, chaos_seed)

    ledger = _open_ledger(cache_dir, progress)

    # Manifest freshness: quarantine records and supervisor counters
    # surface through ledger events *as they happen*, so the manifest
    # on disk is accurate after every cell -- a SIGKILLed parent can no
    # longer leave a stale inventory behind.
    live_quarantined: List[Any] = []
    live_stats: Dict[str, int] = {}

    def flush_manifest() -> None:
        if manifest is not None:
            manifest.flush(live_quarantined, live_stats or None)

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
        if manifest is not None:
            _cache_write(cache_dir, keys[index], result)
            manifest.mark_done(index)
            flush_manifest()

    emit(
        "sweep-start",
        total=total,
        workers=workers,
        cached=total - len(todo),
        grid_digest=_grid_digest(keys),
        experiment=(
            f"{cell_list[0].module.rsplit('.', 1)[-1]}.{cell_list[0].func}"
            if cell_list else None
        ),
        ledger_path=ledger.path if ledger is not None else None,
        supervised=supervise is not None or (workers > 1 and len(todo) > 1),
        cells=[
            {"index": i, "key": key, "label": label}
            for i, (key, label) in enumerate(zip(keys, labels))
        ],
    )
    if cache_dir:
        todo_set = set(todo)
        for index in range(total):
            if index not in todo_set:
                emit("cell-cached", index=index, key=keys[index])

    quarantined: List[Any] = []
    stats: Optional[Dict[str, int]] = None
    try:
        if len(todo) <= 1 or (workers <= 1 and supervise is None):
            for index in todo:
                emit("cell-start", index=index, key=keys[index],
                     label=labels[index], attempt=0)
                started = time.perf_counter()
                result = execute_cell(cell_list[index])
                finish(index, result)
                emit(
                    "cell-finish", index=index, key=keys[index],
                    label=labels[index], attempt=0,
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
                supervise or SupervisorConfig(),
                cache_dir=cache_dir,
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
        if manifest is not None:
            flush_manifest()
            print(
                f"interrupted: completed cells are checkpointed in "
                f"{cache_dir}; re-run with the same directory to finish",
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
    if manifest is not None:
        manifest.flush(quarantined, stats)
    if quarantined and on_quarantine == "raise":
        names = "; ".join(
            f"{record.label} after {record.attempts} attempt(s): "
            f"{record.causes[-1] if record.causes else 'unknown'}"
            for record in quarantined
        )
        where = f" (manifest: {os.path.join(cache_dir, 'manifest.json')})" \
            if cache_dir else ""
        raise QuarantineError(
            f"{len(quarantined)} poison cell(s) quarantined after the "
            f"sweep completed{where}: {names}",
            records=quarantined,
        )
    return results
