"""Representative checkpointable cells of each experiment family.

The CLI (``repro checkpoint`` / ``repro resume``), the CI smoke job and
bench_guard all exercise the same cells -- one per stateful stack: the
fig2 two-job microbenchmark (engine + osmodel + harness callbacks) and
one cell of each replay study: a scale replay (SWIM workload + HFSP +
preemption), a shuffle replay (flows in flight on an oversubscribed
fabric) and a memscale replay (VMM/swap admission).  Each builds mid-flight,
snapshots at a virtual time, finishes, and can be finished again from
the checkpoint; the two finishes must agree on the TraceLog digest and
every metric byte.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.checkpoint.core import Checkpoint, load, restore
from repro.errors import ConfigurationError, SnapshotError
from repro.experiments.drive import finish_replay, replay_study

#: per-kind snapshot instant (mid-flight for the cell's size) and, for
#: the replay studies, the cell's coordinates and workload length
CELL_DEFAULTS = {
    "fig2": {"at": 40.0},
    "scale": {
        "at": 120.0, "num_jobs": 5,
        "coords": {"scenario": "baseline", "primitive_name": "suspend",
                   "trackers": 5},
    },
    "shuffle": {
        "at": 20.0, "num_jobs": 10,
        "coords": {"primitive_name": "suspend", "trackers": 10,
                   "oversubscription": 2.5},
    },
    "memscale": {
        "at": 40.0, "num_jobs": 5,
        "coords": {"mode": "suspend-gated", "trackers": 5},
    },
}


def _defaults(kind: str) -> Dict[str, Any]:
    if kind not in CELL_DEFAULTS:
        raise ConfigurationError(
            f"unknown checkpoint cell {kind!r}; known: "
            f"{', '.join(sorted(CELL_DEFAULTS))}"
        )
    return CELL_DEFAULTS[kind]


def default_seed(kind: str) -> int:
    """The representative cell's seed, matching the experiment's own
    derivation so checkpoint runs stay comparable with study cells."""
    defaults = _defaults(kind)
    if kind == "fig2":
        return 1000
    return replay_study(kind).cell_seed(**defaults["coords"])


def build_cell(kind: str, seed: Optional[int] = None) -> Tuple[Any, Dict]:
    """Build one representative cell, loaded but not yet driven.

    Returns ``(cluster, meta)`` where ``meta`` is the context a resume
    needs to finish the run and recompute its metrics.
    """
    defaults = _defaults(kind)
    seed = default_seed(kind) if seed is None else seed
    if kind == "fig2":
        from repro.experiments.harness import TwoJobHarness

        harness = TwoJobHarness("suspend", 0.5, keep_traces=True)
        return harness.build_cluster(seed), {"kind": kind, "seed": seed}
    params = {**defaults["coords"], "num_jobs": defaults["num_jobs"],
              "seed": seed, "trace": True}
    cluster = replay_study(kind)._build_run(**params)
    return cluster, {"kind": kind, **params}


def finish_cell(cluster: Any, meta: Dict) -> Dict[str, Any]:
    """Drive a built (or restored) cell to completion; return metrics.

    The dict always carries ``trace_digest`` -- the replay-identity
    value the smoke job compares.
    """
    kind = meta.get("kind")
    if kind == "fig2":
        from repro.experiments.harness import measure_two_job

        cluster.run_until_jobs_complete(timeout=14_400.0)
        result = measure_two_job(cluster)
        return {
            "sojourn_th": result.sojourn_th,
            "makespan": result.makespan,
            "tl_paged_bytes": float(result.tl_paged_bytes),
            "th_paged_bytes": float(result.th_paged_bytes),
            "tl_wasted_seconds": result.tl_wasted_seconds,
            "suspend_count": float(result.suspend_count),
            "trace_digest": cluster.sim.trace_log.digest(),
        }
    if kind not in CELL_DEFAULTS:
        raise SnapshotError(
            f"checkpoint meta names no runnable cell (kind={kind!r}); "
            "only checkpoints written by `repro checkpoint` carry a "
            "continuation recipe"
        )
    return finish_replay(cluster, meta)


def checkpoint_cell(
    kind: str,
    path: str,
    at: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one representative cell, snapshotting mid-flight to ``path``.

    Returns the *unbroken* run's metrics (including ``trace_digest``);
    the file at ``path`` can then be resumed and must reproduce them.
    """
    at = CELL_DEFAULTS.get(kind, {}).get("at", 60.0) if at is None else at
    cluster, meta = build_cell(kind, seed=seed)
    cluster.sim.snapshot_at(at, path, root=cluster, meta=meta)
    metrics = finish_cell(cluster, meta)
    if not os.path.exists(path):
        raise SnapshotError(
            f"snapshot instant t={at:g} is past the end of the run "
            f"(finished at t={cluster.sim.now:.1f}); pass an earlier "
            "--at"
        )
    return metrics


def resume_cell(path: str) -> Dict[str, Any]:
    """Restore a checkpoint file and finish the run it froze."""
    checkpoint: Checkpoint = load(path)
    cluster = restore(checkpoint)
    return finish_cell(cluster, dict(checkpoint.meta))
