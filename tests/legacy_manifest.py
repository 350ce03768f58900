"""The re-encode-everything ``manifest.json`` writer, kept as the oracle
for the manifest-bytes differential suite (``test_runner.py``).

This version rebuilds every cell's entry on every flush: it recomputes
each cell's key and label, stats each cell's cache file for its
``done`` flag and runs ``json.dump(indent=2)`` over the whole
manifest.  :class:`repro.experiments.runner._Manifest` encodes each
cell once per sweep and tracks ``done`` in memory instead; the suite
asserts that both write the same bytes at every flush.  The one line
that differs from the original reads the cache path through the
key-based ``_cache_path``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.experiments.runner import Cell, _cache_path, _cell_label, cell_key


def legacy_write_manifest(
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
            "done": os.path.exists(_cache_path(directory, cell_key(cell))),
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
