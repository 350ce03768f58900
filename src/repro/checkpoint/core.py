"""Snapshot/restore/fork of live simulations.

A checkpoint is the *whole object graph* -- engine heap (live entries
only, via the heap-entry representative protocol), RNG streams, the
TraceLog tail, resource ``S(t)`` functions and their armed crossing
events, VMM/swap occupancy, fabric flow/link occupancy, and every
Hadoop job/TIP/attempt/tracker -- serialized with :mod:`pickle` behind
a versioned header.  Model code keeps the graph picklable by never
storing lambdas, closures or local classes in persistent simulation
state (``functools.partial`` of bound methods and module-level callable
classes pickle fine; closures do not).

File layout::

    RPCK | header length (4 bytes, big endian) | header JSON | pickle

The header is plain JSON readable without executing any pickle byte --
``tools/validate_checkpoint.py`` and ``read_header`` rely on that.
Versioning rules: ``format`` is the container layout (bumped on layout
changes); ``schema`` fingerprints the entire ``repro`` source tree, so
a checkpoint is valid only for the exact code that wrote it -- replay
identity cannot survive arbitrary model edits, and a loud
:class:`~repro.errors.SnapshotVersionError` beats a silent divergence.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
)

MAGIC = b"RPCK"
FORMAT_VERSION = 1


@functools.lru_cache(maxsize=1)
def schema_fingerprint() -> str:
    """SHA-256 (truncated) over every ``repro`` source file.

    Any code change -- even one that looks behaviour-preserving --
    yields a new fingerprint, because replay identity is only
    guaranteed against the exact tree that wrote the checkpoint.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        h.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _sim_of(root: Any):
    """The Simulation inside ``root`` (which may *be* the simulation)."""
    return getattr(root, "sim", root)


def layer_inventory(root: Any) -> Dict[str, Any]:
    """Per-layer summary of what a checkpoint of ``root`` captures.

    Written into the header so validation tooling can sanity-check a
    file without unpickling it, and humans can see what a blob holds.
    """
    sim = _sim_of(root)
    inventory: Dict[str, Any] = {
        "engine": {
            "now": sim.now,
            "pending_events": sim.pending_events,
            "events_fired": sim.events_fired,
        },
        "rng": {
            "master_seed": sim.rng.master_seed,
            "streams": sorted(sim.rng._streams),
        },
        "trace": {
            "enabled": sim.trace_log.enabled,
            "records": len(sim.trace_log),
            "digest": sim.trace_log.digest(),
        },
    }
    if root is not sim:  # a HadoopCluster (or compatible facade)
        jobtracker = getattr(root, "jobtracker", None)
        if jobtracker is not None:
            inventory["hadoop"] = {
                "jobs": len(jobtracker.jobs),
                "trackers": len(getattr(root, "trackers", {})),
            }
        kernels = getattr(root, "kernels", {})
        if kernels:
            inventory["osmodel"] = {
                "kernels": len(kernels),
                # live processes only: the kernels reap the dead
                "processes": sum(
                    len(k._processes) for k in kernels.values()
                ),
            }
        fabric = getattr(root, "fabric", None)
        if fabric is not None:
            inventory["netmodel"] = {
                "active_flows": len(fabric._flows),
                "flows_completed": fabric.flows_completed,
            }
    return inventory


@dataclass(frozen=True)
class Checkpoint:
    """A frozen simulation: self-describing header + pickle payload."""

    header: Dict[str, Any]
    payload: bytes

    @property
    def meta(self) -> Dict[str, Any]:
        """Caller-supplied context stored at snapshot time."""
        return self.header.get("meta") or {}

    @property
    def nbytes(self) -> int:
        """Serialized size (header + payload), as written to disk."""
        return len(MAGIC) + 4 + len(self._header_bytes()) + len(self.payload)

    def _header_bytes(self) -> bytes:
        return json.dumps(self.header, sort_keys=True).encode("utf-8")


def snapshot(root: Any, meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
    """Freeze ``root`` (a Simulation or HadoopCluster) in memory.

    Raises :class:`SnapshotError` naming the offender when some object
    in the graph is not picklable (a closure or local class smuggled
    into simulation state).
    """
    try:
        payload = pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"simulation state is not picklable: {exc!r}; persistent "
            "state must avoid lambdas, closures and local classes "
            "(use functools.partial or module-level callables)"
        ) from exc
    header = {
        "format": FORMAT_VERSION,
        "schema": schema_fingerprint(),
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "root_type": f"{type(root).__module__}.{type(root).__qualname__}",
        "layers": layer_inventory(root),
        "meta": dict(meta) if meta else {},
    }
    return Checkpoint(header=header, payload=payload)


def validate_header(header: Dict[str, Any]) -> None:
    """Reject headers this code cannot faithfully restore."""
    fmt = header.get("format")
    if fmt != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"checkpoint format {fmt!r} != supported {FORMAT_VERSION}"
        )
    schema = header.get("schema")
    current = schema_fingerprint()
    if schema != current:
        raise SnapshotVersionError(
            f"checkpoint schema {schema!r} does not match the current "
            f"source tree ({current}); re-create the checkpoint with "
            "this code -- replay identity across code changes is not "
            "guaranteed"
        )


def restore(checkpoint: Checkpoint) -> Any:
    """Thaw a checkpoint into an independent live object graph.

    Every call unpickles afresh, so restoring twice yields two fully
    disjoint simulations.
    """
    validate_header(checkpoint.header)
    try:
        return pickle.loads(checkpoint.payload)
    except Exception as exc:
        raise SnapshotError(f"checkpoint payload corrupt: {exc!r}") from exc


def fork(
    checkpoint: Checkpoint,
    n: int,
    vary: Optional[Callable[[Any, int], None]] = None,
) -> List[Any]:
    """Restore ``n`` what-if branches from one checkpoint.

    Each branch's RNG streams are re-derived with a branch-index salt
    (sha256 of master seed, branch and stream name), so branches share
    their history up to the fork point and explore *independent*
    random futures after it.  ``vary(branch_root, index)`` -- applied
    in-process, so it need not be picklable -- mutates each branch
    before it is returned ("same state, four admission policies").
    """
    if n < 1:
        raise SnapshotError("fork needs at least one branch")
    branches = []
    for index in range(n):
        root = restore(checkpoint)
        _rederive_streams(_sim_of(root).rng, index)
        if vary is not None:
            vary(root, index)
        branches.append(root)
    return branches


def _rederive_streams(registry, branch: int) -> None:
    """Re-seed every existing stream for one fork branch."""
    for name, stream in registry._streams.items():
        digest = hashlib.sha256(
            f"{registry.master_seed}:fork:{branch}:{name}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        stream.seed = seed
        stream.raw.seed(seed)


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------


def write(checkpoint: Checkpoint, path: str) -> None:
    """Write a checkpoint atomically (tmp file + rename)."""
    header_bytes = checkpoint._header_bytes()
    blob = b"".join(
        (MAGIC, struct.pack(">I", len(header_bytes)), header_bytes,
         checkpoint.payload)
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def save(
    root: Any, path: str, meta: Optional[Dict[str, Any]] = None
) -> Checkpoint:
    """Snapshot ``root`` and write it to ``path`` in one step."""
    checkpoint = snapshot(root, meta=meta)
    write(checkpoint, path)
    return checkpoint


def _read_parts(fh, path: str):
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotFormatError(
            f"{path}: not a checkpoint file (magic {magic!r})"
        )
    prefix = fh.read(4)
    if len(prefix) != 4:
        raise SnapshotFormatError(f"{path}: truncated header length")
    (length,) = struct.unpack(">I", prefix)
    raw = fh.read(length)
    if len(raw) != length:
        raise SnapshotFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotFormatError(f"{path}: header is not an object")
    return header


def read_header(path: str) -> Dict[str, Any]:
    """Parse just the JSON header -- no pickle byte is ever executed."""
    with open(path, "rb") as fh:
        return _read_parts(fh, path)


def load(path: str) -> Checkpoint:
    """Read a checkpoint file back into a :class:`Checkpoint`."""
    with open(path, "rb") as fh:
        header = _read_parts(fh, path)
        payload = fh.read()
    if not payload:
        raise SnapshotFormatError(f"{path}: missing pickle payload")
    return Checkpoint(header=header, payload=payload)


# ----------------------------------------------------------------------
# The paced-replay hook
# ----------------------------------------------------------------------


class SnapshotEvent:
    """The callable behind :meth:`Simulation.snapshot_at`.

    A module-level class (not a closure) so a snapshot event that is
    still pending inside *another* checkpoint pickles cleanly.  The
    engine records the event's trace line before invoking it, so the
    checkpoint includes its own snapshot marker and restored runs stay
    digest-comparable with the run that wrote them.
    """

    __slots__ = ("root", "path", "meta")

    def __init__(self, root: Any, path: str,
                 meta: Optional[Dict[str, Any]] = None):
        self.root = root
        self.path = path
        self.meta = meta

    def __call__(self) -> None:
        save(self.root, self.path, meta=self.meta)
