"""Engine self-profiling: read out what the simulator spent itself on.

Builds on the optional per-label attribution in
:class:`~repro.sim.engine.Simulation` (``profile=True``): fired-event
counts and callback wall seconds per event label, plus the engine's
always-on churn counters (schedule/reschedule/compaction totals, heap
residue).  Two consumers:

* ``repro profile --engine`` renders the tables below;
* ``tools/bench_guard.py`` records the *collapsed* label counts (the
  deterministic part) in the BENCH artifact and hard-fails on drift.

Labels carry per-entity suffixes (``tt.heartbeat:node03``);
:func:`collapse_labels` folds those onto their family
(``tt.heartbeat``) so profiles of different cluster sizes line up and
the bench artifact stays small and stable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.engine import Simulation

UNLABELLED = "(unlabelled)"


def label_family(label: str) -> str:
    """The per-entity label's family: the part before the first ``:``
    (``tt.heartbeat:node03`` -> ``tt.heartbeat``), additionally
    stripping a leading ``nodeNN.`` host component
    (``node03.cpu.crossing`` -> ``cpu.crossing``); empty labels group
    under ``(unlabelled)``."""
    if not label:
        return UNLABELLED
    family = label.split(":", 1)[0]
    head, sep, rest = family.partition(".")
    if sep and rest and head.startswith("node") and head[4:].isdigit():
        return rest
    return family


def collapse_labels(counts: Dict[str, int]) -> Dict[str, int]:
    """Fold per-entity label counts onto their families."""
    collapsed: Dict[str, int] = {}
    for label, count in counts.items():
        family = label_family(label)
        collapsed[family] = collapsed.get(family, 0) + count
    return collapsed


def engine_stats(sim: Simulation) -> dict:
    """Snapshot an engine's self-profile as a plain dict.

    The churn counters are always present; ``label_counts`` /
    ``labels`` / ``label_wall`` appear only when the simulation was
    constructed with ``profile=True``.  ``labels`` (collapsed counts)
    is the deterministic slice bench_guard pins.
    """
    stats = {
        "events_fired": sim.events_fired,
        "events_scheduled": sim.events_scheduled,
        "reschedules": sim.reschedules,
        "reschedule_reuses": sim.reschedule_reuses,
        "compactions": sim.compactions,
        "heap_size": sim.heap_size,
        "pending_events": sim.pending_events,
        "profile_enabled": sim.profile_enabled,
    }
    if sim.profile_enabled:
        stats["label_counts"] = sim.label_counts
        stats["labels"] = collapse_labels(sim.label_counts)
        stats["label_wall"] = {
            label: round(wall, 6) for label, wall in sim.label_wall.items()
        }
    return stats


def render_engine_stats(stats: Dict, top: int = 20) -> str:
    """Human-readable profile from an :func:`engine_stats` snapshot:
    churn summary plus the top label families by fired events, with
    their callback wall time alongside."""
    lines: List[str] = [
        "engine profile",
        "==============",
        f"  events fired     : {stats['events_fired']}",
        f"  events scheduled : {stats['events_scheduled']}",
        f"  reschedules      : {stats['reschedules']} "
        f"(reused {stats['reschedule_reuses']})",
        f"  heap compactions : {stats['compactions']}",
        f"  heap residue     : {stats['heap_size']} entries, "
        f"{stats['pending_events']} pending",
    ]
    if not stats["profile_enabled"]:
        lines.append("  (construct the simulation with profile=True "
                     "for per-label attribution)")
        return "\n".join(lines)

    families = stats["labels"]
    wall_families = collapse_wall(stats["label_wall"])
    lines += ["", f"top {top} label families by fired events",
              "-" * 40]
    ranked = sorted(families.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    for family, count in ranked:
        wall = wall_families.get(family, 0.0)
        lines.append(f"  {family:<32} {count:>10}  {wall * 1e3:>9.2f} ms")
    hidden = len(families) - len(ranked)
    if hidden > 0:
        lines.append(f"  ... and {hidden} more families")
    return "\n".join(lines)


def collapse_wall(wall: Dict[str, float]) -> Dict[str, float]:
    """Label-family wall totals (same folding as :func:`collapse_labels`)."""
    collapsed: Dict[str, float] = {}
    for label, seconds in wall.items():
        family = label_family(label)
        collapsed[family] = collapsed.get(family, 0.0) + seconds
    return collapsed
