"""Supervised, crash-tolerant execution of experiment cell sweeps.

The plain pool runner treats worker death as fatal: one segfault, OOM
kill or hang inside ``Pool.imap`` and the whole sweep stalls or dies,
losing every uncached cell.  Real clusters treat worker churn as
routine, and the harness holds itself to the same standard the
simulator models.  This module replaces the pool with one supervised
worker process per shard and a parent-side watchdog:

* **liveness heartbeats** -- a daemon thread in every worker pings the
  parent over its duplex result channel; a silent worker is declared
  dead and replaced;
* **per-cell wall-clock timeouts** -- a cell running past the budget
  gets its worker SIGKILLed and the cell retried;
* **crash detection** -- a worker that exits nonzero or dies to a
  signal (its pipe EOFs, its sentinel fires) forfeits its in-flight
  cell back to the queue;
* **deterministic retries** -- a failed cell is retried up to
  ``max_retries`` times with exponential backoff whose length is
  derived from the *cell key and attempt number*, never from wall
  time; cells are pure functions of their params, so a retried sweep
  is byte-identical to a clean one;
* **poison-cell quarantine** -- a cell that exhausts its retries is
  quarantined (reported, not fatal): the sweep completes and the
  manifest names the poison cells;
* **graceful pool degradation** -- a slot that keeps dying without
  completing anything is retired; the remaining shards steal its
  share of the queue (dispatch is pull-based, so stealing is free);
* **mid-cell auto-snapshot** -- resumable cells (the long replay
  studies) persist a checkpoint every N *virtual* seconds via the
  drive-loop hook, so a crashed shard restores mid-cell instead of
  restarting from zero.

Chaos faults (:mod:`repro.experiments.chaos`) are injected worker-side
at cell boundaries; the differential suite pins that a chaos-ridden
sweep's results -- TraceLog and sketch digests included -- are
byte-identical to an undisturbed serial run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, QuarantineError, SupervisorError
from repro.experiments.chaos import ChaosPlan, corrupt_payload

#: watchdog poll tick (wall seconds); only latency, never results,
#: depends on it
_TICK = 0.05

#: the supervisor's telemetry counters (``sweep.<name>`` in the
#: registry, bare names in manifests and :class:`SweepResult.stats`)
_COUNTER_NAMES = (
    "retries", "quarantines", "worker_deaths", "timeouts",
    "corrupt_results", "worker_restarts", "heartbeats_lost",
    "cells_completed",
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one supervised sweep."""

    max_retries: int = 2          # attempts per cell = max_retries + 1
    cell_timeout: Optional[float] = None   # wall seconds per attempt
    heartbeat_interval: float = 0.5        # worker ping period
    heartbeat_timeout: float = 30.0        # silence => worker is dead
    backoff_base: float = 0.05             # virtual attempt-space unit
    backoff_cap: float = 2.0               # wall-sleep ceiling
    worker_death_cap: int = 3     # consecutive deaths before slot retires
    snapshot_every: Optional[float] = 900.0  # virtual s between mid-cell
    #                                          snapshots (None = off)
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be > 0 seconds")
        if self.snapshot_every is not None and self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0 seconds")
        if self.chaos is not None and self.chaos.requires_timeout() and (
            self.cell_timeout is None
        ):
            raise ConfigurationError(
                "chaos plan hangs workers but no cell_timeout is set; "
                "a hung cell would stall the sweep forever"
            )


@dataclass
class QuarantineRecord:
    """One poison cell: where it sat, what it was, how it died."""

    index: int
    key: str
    label: str
    attempts: int
    causes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "attempts": self.attempts,
            "causes": list(self.causes),
        }


@dataclass
class SweepResult:
    """What a supervised sweep produced."""

    results: List[Any]
    quarantined: List[QuarantineRecord]
    stats: Dict[str, int]


def retry_backoff(
    cell_key: str, attempt: int, base: float = 0.05, cap: float = 2.0
) -> float:
    """Deterministic exponential backoff in virtual attempt-space.

    ``base * 2**attempt`` with a jitter fraction drawn from SHA-256 of
    ``(cell_key, attempt)`` -- a pure function of *what failed and how
    many times*, never of wall time or worker identity, so two runs of
    the same sweep back off identically.  The value only paces
    redispatch; results cannot depend on it.
    """
    digest = hashlib.sha256(f"{cell_key}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32  # [0, 1)
    return min(base * (2.0 ** attempt) * (1.0 + jitter), cap)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _heartbeat_loop(conn, lock: threading.Lock, interval: float) -> None:
    seq = 0
    while True:
        time.sleep(interval)
        seq += 1
        try:
            with lock:
                conn.send(("ping", seq))
        except (OSError, ValueError):  # parent gone; die quietly
            return


class _MidcellKiller(threading.Thread):
    """The ``kill-mid`` chaos fault: SIGKILL ourselves after a delay."""

    def __init__(self, delay: float):
        super().__init__(daemon=True)
        self.delay = delay

    def run(self) -> None:  # pragma: no cover - dies with the process
        time.sleep(self.delay)
        os.kill(os.getpid(), signal.SIGKILL)


def execute_cell_resumable(
    cell,
    cache_dir: Optional[str],
    snapshot_every: Optional[float],
    ledger=None,
) -> Any:
    """Run one cell, resuming from (and refreshing) its mid-cell
    checkpoint when it is a replay-study cell.

    Other cells, or runs without a cache directory or snapshot
    interval, fall through to the plain
    :func:`repro.experiments.runner.execute_cell`.  A replay cell
    restores ``<cache>/<key>.midck`` when a usable one exists (else
    builds from zero) and finishes through
    :func:`repro.experiments.drive.finish_replay`, which rewrites the
    file every ``snapshot_every`` virtual seconds and narrates each
    write to ``ledger``.  On success the mid-cell checkpoint is
    deleted -- the finished result supersedes it.
    """
    from repro.checkpoint.core import load, restore
    from repro.errors import SnapshotError
    from repro.experiments.drive import (
        AutoSnapshot,
        finish_replay,
        replay_kind,
        replay_study,
    )
    from repro.experiments.runner import cell_key, execute_cell

    kind = replay_kind(cell)
    if kind is None or cache_dir is None or not snapshot_every:
        return execute_cell(cell)

    midck = os.path.join(cache_dir, cell_key(cell) + ".midck")
    cluster = None
    meta = {"kind": kind, **cell.kwargs}
    if os.path.exists(midck):
        try:
            checkpoint = load(midck)
            cluster = restore(checkpoint)
            meta = dict(checkpoint.meta)
        except SnapshotError as exc:
            print(
                f"warning: mid-cell checkpoint {midck} unusable ({exc}); "
                "re-running the cell from zero",
                file=sys.stderr,
            )
            _remove_quietly(midck)
    if cluster is None:
        cluster = replay_study(kind)._build_run(**cell.kwargs)
    result = finish_replay(
        cluster, meta, AutoSnapshot(midck, snapshot_every, meta, ledger)
    )
    _remove_quietly(midck)
    return result


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _worker_main(
    wid: int,
    conn,
    cache_dir: Optional[str],
    snapshot_every: Optional[float],
    chaos: Optional[ChaosPlan],
    heartbeat_interval: float,
    ledger_path: Optional[str] = None,
) -> None:
    """One supervised shard: pull a cell, run it, push the result.

    Every outbound message is guarded by a lock shared with the
    heartbeat thread so pings never interleave with result frames.
    When the sweep has a file ledger, the worker opens its own
    ``O_APPEND`` handle on it (line appends are atomic, so parent and
    worker records interleave only at line boundaries) and arms it as
    the mid-cell snapshot ledger -- which is how snapshot writes
    inside the drive loop get narrated.
    """
    from repro.experiments.runner import cell_key

    ledger = None
    if ledger_path is not None:
        from repro.obs.ledger import Ledger

        try:
            ledger = Ledger(ledger_path)
        except OSError:
            pass  # observation never takes down the shard

    lock = threading.Lock()
    threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, heartbeat_interval),
        daemon=True,
    ).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _tag, index, cell, attempt = message
        fault = (
            chaos.fault_for(cell_key(cell), attempt)
            if chaos is not None else None
        )
        with lock:
            conn.send(("start", index, attempt))
        if fault is not None and fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault is not None and fault.kind == "hang":
            time.sleep(chaos.hang_seconds)
            # Unreachable under a sane config: the parent's cell
            # timeout SIGKILLs us first.  If it ever is reached, fall
            # through and run the cell -- determinism is preserved.
        if fault is not None and fault.kind == "kill-mid":
            _MidcellKiller(fault.delay).start()
        try:
            result = execute_cell_resumable(
                cell, cache_dir, snapshot_every, ledger
            )
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest()
            if fault is not None and fault.kind == "corrupt":
                payload = corrupt_payload(payload)
            with lock:
                conn.send(("done", index, attempt, payload, digest))
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            try:
                exc_bytes = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                exc_bytes = None
            with lock:
                conn.send((
                    "error", index, attempt, exc_bytes,
                    "".join(traceback.format_exception(exc)),
                ))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _Slot:
    """One supervised worker slot (survives its workers' deaths)."""

    __slots__ = (
        "slot_id", "process", "conn", "inflight", "deadline",
        "last_ping", "deaths", "kill_cause", "retired", "started",
    )

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.process = None
        self.conn = None
        self.inflight: Optional[Tuple[int, int]] = None  # (index, attempt)
        self.deadline: Optional[float] = None
        self.last_ping: float = 0.0
        self.deaths = 0          # consecutive, reset by any completion
        self.kill_cause: Optional[str] = None  # set when *we* kill it
        self.retired = False
        self.started: Optional[float] = None  # dispatch time of inflight

    @property
    def live(self) -> bool:
        return (
            not self.retired
            and self.process is not None
            and self.process.is_alive()
        )


class Supervisor:
    """Parent-side watchdog driving one sweep to completion."""

    def __init__(
        self,
        cell_list: List[Any],
        todo: List[int],
        workers: int,
        config: SupervisorConfig,
        cache_dir: Optional[str] = None,
        on_finish: Optional[Callable[[int, Any], None]] = None,
        ledger=None,
    ):
        from repro.experiments.runner import _cell_label, cell_key

        if workers < 1:
            raise ConfigurationError("supervisor needs at least one worker")
        self.cells = cell_list
        self.todo = list(todo)
        self.config = config
        self.cache_dir = cache_dir
        self.on_finish = on_finish
        self.ledger = ledger
        self._next_counters = 0.0  # next periodic counters emission
        self.workers = min(workers, max(len(self.todo), 1))
        # Each to-do cell's key and label, computed once for every
        # ledger event and backoff that names the cell.
        self.keys = {index: cell_key(cell_list[index]) for index in self.todo}
        self.labels = {
            index: _cell_label(cell_list[index]) for index in self.todo
        }

        self.results: Dict[int, Any] = {}
        self.quarantined: List[QuarantineRecord] = []
        self.pending: List[int] = list(self.todo)
        self.not_before: Dict[int, float] = {}
        self.attempts: Dict[int, int] = {index: 0 for index in self.todo}
        self.causes: Dict[int, List[str]] = {index: [] for index in self.todo}
        self.slots: List[_Slot] = []
        self._context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        # Telemetry counters ride the standard registry so a service
        # layer can merge per-sweep stats the same way it merges cell
        # sketches (counter merge = sum, order-insensitive).
        from repro.telemetry.registry import MetricRegistry

        self.metrics = MetricRegistry()
        for name in _COUNTER_NAMES:
            self.metrics.counter(f"sweep.{name}")

    # -- lifecycle -----------------------------------------------------

    def _inc(self, name: str) -> None:
        self.metrics.counter(f"sweep.{name}").inc()

    def _stats(self) -> Dict[str, int]:
        return {
            name: self.metrics.counter(f"sweep.{name}").value
            for name in _COUNTER_NAMES
        }

    def _emit(self, event: str, **fields: Any) -> None:
        if self.ledger is not None:
            self.ledger.emit(event, **fields)

    def run(self) -> SweepResult:
        if not self.todo:
            return SweepResult([], [], self._stats())
        try:
            for slot_id in range(self.workers):
                slot = _Slot(slot_id)
                self._spawn(slot)
                self.slots.append(slot)
            self._loop()
        finally:
            self._shutdown()
        results = [self.results.get(index) for index in self.todo]
        return SweepResult(
            results=results,
            quarantined=list(self.quarantined),
            stats=self._stats(),
        )

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                slot.slot_id, child_conn, self.cache_dir,
                self.config.snapshot_every, self.config.chaos,
                self.config.heartbeat_interval,
                self.ledger.path if self.ledger is not None else None,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.inflight = None
        slot.deadline = None
        slot.kill_cause = None
        slot.started = None
        slot.last_ping = time.monotonic()
        self._emit("worker-spawn", slot=slot.slot_id, worker_pid=process.pid)

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.live and slot.conn is not None:
                try:
                    slot.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        for slot in self.slots:
            if slot.process is not None:
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=5.0)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None

    # -- main loop -----------------------------------------------------

    def _outstanding(self) -> int:
        done = len(self.results) + len(self.quarantined)
        return len(self.todo) - done

    #: wall seconds between periodic supervisor-counter snapshots in
    #: the ledger (observation cadence only; results never depend on it)
    COUNTERS_EVERY = 2.0

    def _loop(self) -> None:
        while self._outstanding() > 0:
            self._reap_dead()
            self._check_watchdog()
            self._dispatch()
            if self._outstanding() == 0:
                break
            now = time.monotonic()
            if self.ledger is not None and now >= self._next_counters:
                self._next_counters = now + self.COUNTERS_EVERY
                self._emit("counters", counters=self._stats())
            self._drain(timeout=_TICK)

    def _live_slots(self) -> List[_Slot]:
        return [slot for slot in self.slots if slot.live]

    def _dispatch(self) -> None:
        now = time.monotonic()
        for slot in self._live_slots():
            if slot.inflight is not None or not self.pending:
                continue
            position = next(
                (
                    i for i, index in enumerate(self.pending)
                    if self.not_before.get(index, 0.0) <= now
                ),
                None,
            )
            if position is None:
                continue
            index = self.pending.pop(position)
            attempt = self.attempts[index]
            self.attempts[index] = attempt + 1
            try:
                slot.conn.send(("run", index, self.cells[index], attempt))
            except (OSError, ValueError):
                # Died between liveness check and send; requeue
                # without charging an attempt and let _reap_dead
                # handle the corpse.
                self.attempts[index] = attempt
                self.pending.insert(0, index)
                continue
            slot.inflight = (index, attempt)
            slot.started = now
            slot.deadline = (
                now + self.config.cell_timeout
                if self.config.cell_timeout is not None else None
            )
            self._emit(
                "cell-start", index=index, key=self.keys[index],
                label=self.labels[index], attempt=attempt,
                slot=slot.slot_id,
            )

    def _drain(self, timeout: float) -> None:
        connections = {
            slot.conn: slot for slot in self._live_slots()
            if slot.conn is not None
        }
        sentinels = {
            slot.process.sentinel: slot for slot in self._live_slots()
        }
        waitables = list(connections) + list(sentinels)
        if not waitables:
            return
        ready = multiprocessing.connection.wait(waitables, timeout=timeout)
        for item in ready:
            slot = connections.get(item)
            if slot is None:
                continue  # sentinel: _reap_dead picks it up next tick
            self._drain_slot(slot)

    def _drain_slot(self, slot: _Slot) -> None:
        while slot.conn is not None:
            try:
                if not slot.conn.poll():
                    return
                message = slot.conn.recv()
            except (EOFError, OSError):
                return  # dead; the sentinel path reaps it
            self._handle(slot, message)

    def _handle(self, slot: _Slot, message: Tuple) -> None:
        tag = message[0]
        if tag == "ping":
            slot.last_ping = time.monotonic()
        elif tag == "start":
            _tag, index, _attempt = message
            if self.config.cell_timeout is not None:
                slot.deadline = time.monotonic() + self.config.cell_timeout
        elif tag == "done":
            self._handle_done(slot, message)
        elif tag == "error":
            self._handle_error(slot, message)
        else:
            raise SupervisorError(
                f"worker {slot.slot_id} sent malformed message {tag!r}"
            )

    def _handle_done(self, slot: _Slot, message: Tuple) -> None:
        _tag, index, attempt, payload, digest = message
        slot.inflight = None
        slot.deadline = None
        started = slot.started
        slot.started = None
        if hashlib.sha256(payload).hexdigest() != digest:
            self._inc("corrupt_results")
            self._fail(index, "corrupt result payload (digest mismatch)")
            return
        try:
            result = pickle.loads(payload)
        except Exception as exc:
            self._inc("corrupt_results")
            self._fail(index, f"corrupt result payload (unpickle: {exc!r})")
            return
        slot.deaths = 0
        self._inc("cells_completed")
        self.results[index] = result
        # Cache write first, ledger second: a cell-finish record must
        # never precede the result file it announces (the manifest
        # flush that rides the ledger relies on this ordering).
        if self.on_finish is not None:
            self.on_finish(index, result)
        from repro.experiments.runner import cell_cost

        self._emit(
            "cell-finish", index=index, key=self.keys[index],
            label=self.labels[index], attempt=attempt,
            duration_s=(
                round(time.monotonic() - started, 3)
                if started is not None else None
            ),
            cost=cell_cost(result),
            sketch=result.get("sketch") if isinstance(result, dict) else None,
            slot=slot.slot_id,
        )

    def _handle_error(self, slot: _Slot, message: Tuple) -> None:
        """A Python exception inside a cell: deterministic (cells are
        pure), so retrying is futile -- propagate like the pool did."""
        _tag, _index, _attempt, exc_bytes, tb_text = message
        slot.inflight = None
        exc: BaseException
        if exc_bytes is not None:
            try:
                exc = pickle.loads(exc_bytes)
            except Exception:
                exc = SupervisorError(f"worker raised:\n{tb_text}")
        else:
            exc = SupervisorError(f"worker raised:\n{tb_text}")
        if isinstance(exc, KeyboardInterrupt):
            raise KeyboardInterrupt from None
        raise exc from SupervisorError(
            f"worker {slot.slot_id} traceback:\n{tb_text}"
        )

    # -- watchdog ------------------------------------------------------

    def _check_watchdog(self) -> None:
        now = time.monotonic()
        for slot in self._live_slots():
            if slot.kill_cause is not None:
                continue  # already killed; waiting for the reaper
            if (
                slot.inflight is not None
                and slot.deadline is not None
                and now > slot.deadline
            ):
                self._inc("timeouts")
                slot.kill_cause = (
                    f"cell timeout after {self.config.cell_timeout:g}s"
                )
                slot.process.kill()
            elif (
                now - slot.last_ping > self.config.heartbeat_timeout
            ):
                self._inc("heartbeats_lost")
                slot.kill_cause = (
                    f"heartbeat lost for {self.config.heartbeat_timeout:g}s"
                )
                slot.process.kill()

    def _reap_dead(self) -> None:
        for slot in self.slots:
            if slot.retired or slot.process is None:
                continue
            if slot.process.is_alive():
                continue
            # Drain any result that raced the death before declaring
            # the in-flight cell lost.
            self._drain_slot(slot)
            exitcode = slot.process.exitcode
            cause = slot.kill_cause or f"worker died (exitcode {exitcode})"
            if slot.kill_cause is None:
                self._inc("worker_deaths")
            slot.deaths += 1
            self._emit(
                "worker-death", slot=slot.slot_id, cause=cause,
                exitcode=exitcode, deaths=slot.deaths,
                death_cap=self.config.worker_death_cap,
            )
            if slot.inflight is not None:
                index, _attempt = slot.inflight
                slot.inflight = None
                slot.deadline = None
                slot.started = None
                self._fail(index, cause)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
            if slot.deaths > self.config.worker_death_cap:
                slot.retired = True
                slot.process = None
                remaining = len(self._live_slots())
                self._emit(
                    "worker-retire", slot=slot.slot_id,
                    deaths=slot.deaths, remaining=remaining,
                )
                if remaining == 0 and self._outstanding() > 0:
                    raise SupervisorError(
                        "every worker slot is permanently dead with "
                        f"{self._outstanding()} cell(s) outstanding"
                    )
            else:
                self._inc("worker_restarts")
                self._spawn(slot)

    def _fail(self, index: int, cause: str) -> None:
        self.causes[index].append(cause)
        used = self.attempts[index]  # attempts already started
        if used <= self.config.max_retries:
            self._inc("retries")
            key = self.keys[index]
            self.not_before[index] = time.monotonic() + retry_backoff(
                key, used - 1,
                base=self.config.backoff_base,
                cap=self.config.backoff_cap,
            )
            self.pending.insert(0, index)
            self._emit(
                "cell-retry", index=index, key=key,
                cause=cause, attempt=used,
                max_retries=self.config.max_retries,
            )
        else:
            self._inc("quarantines")
            record = QuarantineRecord(
                index=index,
                key=self.keys[index],
                label=self.labels[index],
                attempts=used,
                causes=list(self.causes[index]),
            )
            self.quarantined.append(record)
            self._emit(
                "cell-quarantine", index=index, key=record.key,
                label=record.label, attempts=used, cause=cause,
                causes=list(record.causes),
            )


def supervise_cells(
    cell_list: List[Any],
    todo: List[int],
    workers: int,
    config: Optional[SupervisorConfig] = None,
    cache_dir: Optional[str] = None,
    on_finish: Optional[Callable[[int, Any], None]] = None,
    ledger=None,
) -> SweepResult:
    """Run ``cell_list[i] for i in todo`` under supervision.

    Returns a :class:`SweepResult` whose ``results`` list lines up
    with ``todo`` (quarantined cells hold ``None``).  This is the
    non-raising API; :func:`repro.experiments.runner.run_cells` wraps
    it and raises :class:`~repro.errors.QuarantineError` by default.
    Pass a :class:`~repro.obs.ledger.Ledger` to narrate every
    lifecycle event.
    """
    supervisor = Supervisor(
        cell_list, todo, workers,
        config or SupervisorConfig(),
        cache_dir=cache_dir, on_finish=on_finish, ledger=ledger,
    )
    return supervisor.run()
