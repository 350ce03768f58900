#!/usr/bin/env python
"""Chaos smoke: a supervised sweep under injected faults must be
byte-identical to a clean serial run.

Runs a small scale-study grid twice -- once serially and undisturbed,
once sharded over supervised workers with a seeded chaos plan that
SIGKILLs one worker and hangs another -- and fails loudly on any
divergence in the result lists (TraceLog digests included).  Writes
the sweep's quarantine manifest next to the cell cache so CI can
upload it as an artifact.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py --out chaos-manifest.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import QuarantineError  # noqa: E402
from repro.experiments.chaos import ChaosFault, make_plan  # noqa: E402
from repro.experiments.runner import Cell, cell_key, run_cells  # noqa: E402
from repro.experiments.scale_study import cell_seed  # noqa: E402
from repro.experiments.supervisor import SupervisorConfig  # noqa: E402


def _grid(trackers: int, num_jobs: int):
    cells = []
    for primitive in ("wait", "suspend", "kill"):
        seed = cell_seed("baseline", trackers, primitive)
        cells.append(Cell.make(
            "repro.experiments.scale_study", "_run_once",
            scenario="baseline", primitive_name=primitive,
            trackers=trackers, num_jobs=num_jobs, seed=seed, trace=True,
        ))
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="chaos-manifest.json",
                        help="where to copy the sweep manifest")
    parser.add_argument("--ledger-out", default="chaos-ledger.jsonl",
                        help="where to copy the sweep's run ledger "
                        "(validate with tools/validate_ledger.py)")
    parser.add_argument("--trackers", type=int, default=5)
    parser.add_argument("--num-jobs", type=int, default=5)
    parser.add_argument("--cell-timeout", type=float, default=20.0,
                        help="wall budget per attempt (catches the hang); "
                        "generous next to the ~1 s cells, small enough "
                        "that the injected hang costs CI only seconds")
    args = parser.parse_args(argv)

    cells = _grid(args.trackers, args.num_jobs)
    keys = [cell_key(cell) for cell in cells]

    print("chaos_smoke: clean serial baseline ...", flush=True)
    baseline = run_cells(cells, workers=1)

    # One worker SIGKILL and one hang, at fixed cell boundaries; the
    # plan is explicit (not seeded+rated) so the smoke always injects
    # exactly these two faults regardless of grid edits.
    plan = make_plan(
        {
            (keys[0], 0): ChaosFault("kill"),
            (keys[1], 0): ChaosFault("hang"),
        },
    )
    config = SupervisorConfig(
        max_retries=2,
        cell_timeout=args.cell_timeout,
        heartbeat_interval=0.1,
        chaos=plan,
        snapshot_every=None,
    )

    print(f"chaos_smoke: supervised sweep under {plan.describe()} ...",
          flush=True)
    cache = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    quarantined = 0
    try:
        try:
            disturbed = run_cells(
                cells, workers=3, cache_dir=str(cache), supervise=config,
            )
        except QuarantineError as exc:
            quarantined = len(exc.records)
            disturbed = None
        manifest_path = cache / "manifest.json"
        if manifest_path.exists():
            shutil.copy(manifest_path, args.out)
            print(f"chaos_smoke: manifest copied to {args.out}")
        ledger_file = cache / "ledger.jsonl"
        if ledger_file.exists():
            shutil.copy(ledger_file, args.ledger_out)
            print(f"chaos_smoke: run ledger copied to {args.ledger_out}")
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    if quarantined:
        print(
            f"chaos_smoke: FAIL -- {quarantined} cell(s) quarantined; "
            "the injected faults fit inside the retry budget, so "
            "recovery itself is broken",
            file=sys.stderr,
        )
        return 1
    if disturbed != baseline:
        for index, (a, b) in enumerate(zip(baseline, disturbed)):
            if a != b:
                print(
                    f"chaos_smoke: FAIL -- cell {index} diverged:\n"
                    f"  clean:   {a}\n  chaotic: {b}",
                    file=sys.stderr,
                )
        return 1

    digests = [result["trace_digest"] for result in disturbed]
    print(
        "chaos_smoke: OK -- chaos-disturbed sweep byte-identical to the "
        f"clean serial run; trace digests: {', '.join(digests)}"
    )
    json_blob = json.dumps(baseline, sort_keys=True, default=repr)
    canon = hashlib.sha256(json_blob.encode("utf-8")).hexdigest()[:16]
    print(f"chaos_smoke: result canon sha256 prefix {canon}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
