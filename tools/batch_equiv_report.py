"""Batched-vs-unbatched digest-equality report (CI artifact).

Runs one small cell from each experiment family -- SWIM scale replay
(facebook and steady mixes), the network-fabric shuffle study, the
memory-admission (memscale) study, and the fig2 two-job harness --
twice each: once with ``batch_heartbeats`` on and once off, with
everything else (including ``heartbeat_phases``) held fixed.  Records
both TraceLog digests -- the engine digest over every record and the
science digest over the domain records alone -- the event counts, and
the metric sketches per cell, and exits non-zero if any pair differs.

The point of the artifact is auditability: the batched dispatch path
is only allowed to be a *performance* change, and this report is the
per-commit receipt that the two paths produced byte-identical traces
on every experiment family.  The exhaustive evidence lives in the
test suite (``tests/test_batched_differential.py``); this report is
the cheap always-on slice CI uploads next to ``BENCH_PR3.json``.

Usage::

    python tools/batch_equiv_report.py --out BATCH_EQUIV.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: every cell runs both modes on the same phase grid; 4 phases gives
#: 500-way heartbeat coalescing at scale and still exercises the
#: batch-context repair machinery at these small sizes
PHASES = 4


def _scale_cell(scenario: str) -> dict:
    from repro.experiments.runner import derive_seed
    from repro.experiments.scale_study import _run_once

    def run(batched: bool) -> dict:
        return _run_once(
            scenario=scenario, primitive_name="suspend", trackers=15,
            num_jobs=12, seed=derive_seed(9000, "scale", scenario, 15,
                                          "suspend", 0),
            trace=True, heartbeat_phases=PHASES, batch_heartbeats=batched,
        )

    return {"batched": run(True), "unbatched": run(False)}


def _shuffle_cell() -> dict:
    from repro.experiments.runner import derive_seed
    from repro.experiments.shuffle_study import _run_once

    def run(batched: bool) -> dict:
        return _run_once(
            primitive_name="kill", trackers=15, num_jobs=10,
            oversubscription=2.5,
            seed=derive_seed(11000, "shuffle", 15, "kill", 2.5, 0.0, 0),
            trace=True, heartbeat_phases=PHASES, batch_heartbeats=batched,
        )

    return {"batched": run(True), "unbatched": run(False)}


def _memscale_cell() -> dict:
    from repro.experiments.memscale_study import (
        RESERVE_BYTES,
        SWAP_BYTES,
        _run_once,
    )
    from repro.experiments.runner import derive_seed

    def run(batched: bool) -> dict:
        return _run_once(
            mode="suspend-gated", trackers=15, num_jobs=10,
            seed=derive_seed(12000, "memscale", 15, "suspend-gated",
                             SWAP_BYTES, RESERVE_BYTES, 0),
            trace=True, heartbeat_phases=PHASES, batch_heartbeats=batched,
        )

    return {"batched": run(True), "unbatched": run(False)}


def _fig2_cell() -> dict:
    from repro.experiments import params as P
    from repro.experiments.harness import TwoJobHarness

    def run(batched: bool) -> dict:
        config = P.paper_hadoop_config().replace(
            heartbeat_phases=PHASES, batch_heartbeats=batched,
        )
        harness = TwoJobHarness("suspend", 0.5, runs=1, keep_traces=True,
                                hadoop_config=config)
        result = harness.run_once(seed=99)
        sim = result.trace_cluster.sim
        return {
            "trace_digest": sim.trace_log.digest(),
            "science_digest": sim.trace_log.science_digest(),
            "events": float(sim.events_fired),
            "sketch": (
                f"th={result.sojourn_th:.6f},mk={result.makespan:.6f},"
                f"wasted={result.tl_wasted_seconds:.6f},"
                f"susp={result.suspend_count}"
            ),
        }

    return {"batched": run(True), "unbatched": run(False)}


CELLS = {
    "scale_facebook_suspend_15": lambda: _scale_cell("baseline"),
    "scale_steady_suspend_15": lambda: _scale_cell("steady"),
    "shuffle_kill_15": _shuffle_cell,
    "memscale_suspend_gated_15": _memscale_cell,
    "fig2_suspend_50pct": _fig2_cell,
}

#: the fields each pair must agree on, where present
COMPARED = ("trace_digest", "science_digest", "events", "sketch")


def build_report() -> dict:
    report = {"phases": PHASES, "cells": {}, "all_equal": True}
    for name, fn in CELLS.items():
        pair = fn()
        entry = {}
        equal = True
        for field in COMPARED:
            batched = pair["batched"].get(field)
            unbatched = pair["unbatched"].get(field)
            if batched is None and unbatched is None:
                continue
            entry[f"batched_{field}"] = batched
            entry[f"unbatched_{field}"] = unbatched
            equal = equal and batched == unbatched
        entry["equal"] = equal
        report["cells"][name] = entry
        report["all_equal"] = report["all_equal"] and equal
        print(f"  {name:>28}: {'EQUAL' if equal else 'DIVERGED'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BATCH_EQUIV.json",
                        help="report artifact path (default BATCH_EQUIV.json)")
    args = parser.parse_args(argv)

    print("batch_equiv_report: running paired cells...")
    report = build_report()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if not report["all_equal"]:
        print("batch_equiv_report: DIGEST DIVERGENCE", file=sys.stderr)
        return 1
    print("batch_equiv_report: all cells byte-identical across modes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
