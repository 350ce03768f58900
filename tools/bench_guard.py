"""Benchmark guard: regenerate BENCH_PR3.json and police regressions.

Runs a small battery of deterministic workloads spanning the layers
the virtual-time resource refactor touched -- the contention
microbench, a two-job paper cell, SWIM replay cells, a network-fabric
shuffle cell, a memory-admission (memscale) cell, and the steady-mix
scale cells (2000 trackers in the default tier, 5000 behind
``--slow``) -- and records, per bench:

* ``wall_s``   -- wall-clock seconds (machine-dependent);
* ``events``   -- simulation events fired (deterministic);
* ``engine_ops`` -- schedule + reschedule calls (deterministic);
* ``labels``   -- fired events per collapsed label family, from the
  engine's self-profiling hooks (deterministic: same seed, same
  counts to the event);
* ``sketch_digest`` -- the scale cells' metric-sketch hash
  (deterministic);
* ``reports`` / ``statuses`` -- on the ``REPORT_COUNTED`` benches,
  heartbeat reports built (``TaskTracker.build_report`` calls) and the
  attempt statuses they carried (deterministic; counted by wrapping
  the method from here, so the program pays nothing).

``--check BASELINE`` compares against a checked-in baseline.  **The
deterministic counters are strict**: they compare exactly on any
machine, so a >20% event/op growth exits non-zero, and the per-label
family counts and sketch digests must match the baseline *exactly* --
any drift in what the engine fires per label, or in what a scale cell
computes, is a behaviour change someone must either explain or bless
with ``--update-baseline``.  ``reports`` and ``statuses`` compare
exactly too: they gate the work of the heartbeat's report path, which
no engine event shows.  Wall-clock
baselines are checked in from whatever host refreshed them last, and
per-bench speed ratios vary across CPUs far beyond any useful
tolerance; the guard therefore *recalibrates* the wall baseline --
every bench's baseline wall is scaled by the median current/baseline
ratio across benches (the machine factor) -- and reports benches that
regressed relative to their recalibrated baseline as **warnings**.
The one failing wall gate is coarse: at full scale a ``WALL_GATED``
cell fails past ``MAX_WALL_RATIO`` times its recalibrated baseline.
Any other wall-only warning is a profiling lead, not a gate.

Usage::

    python tools/bench_guard.py --out BENCH_PR3.json
    python tools/bench_guard.py --out BENCH_PR3.json \
        --check benchmarks/BENCH_PR3.baseline.json
    python tools/bench_guard.py --update-baseline   # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

WALL_TOLERANCE = 1.20
COUNTER_TOLERANCE = 1.20
#: benches faster than this are policed by their deterministic
#: counters only -- sub-250ms wall clocks are timer noise on shared CI
WALL_FLOOR_S = 0.25
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "BENCH_PR3.baseline.json"
)


def bench_resource_churn(scale: float = 1.0) -> dict:
    """The tentpole pattern: one resource, many claims, heavy churn."""
    from repro.osmodel.resources import RateResource
    from repro.sim.engine import Simulation
    from repro.telemetry.profiling import collapse_labels

    claims_n = max(int(600 * scale), 8)
    cycles = max(int(20_000 * scale), 16)
    sim = Simulation(profile=True)
    res = RateResource(sim, capacity=100.0)
    claims = [res.submit(1e8 + i, lambda: None) for i in range(claims_n)]
    for cycle in range(cycles):
        victim = claims[(cycle * 37) % claims_n]
        res.pause(victim)
        res.activate(victim)
        if cycle % 50 == 0:
            res.set_speed_factor(0.5 if cycle % 100 == 0 else 1.0)
    return {
        "events": sim.events_fired,
        "engine_ops": sim.events_scheduled + sim.reschedules,
        "labels": collapse_labels(sim.label_counts),
    }


def bench_two_job_suspend(scale: float = 1.0) -> dict:
    """Figure-2 microbenchmark cells (suspend at 50%), heavy variant
    included so the bench clears the wall-clock floor."""
    from repro.experiments.harness import TwoJobHarness
    from repro.telemetry.profiling import collapse_labels

    runs = max(int(10 * scale), 1)
    events = ops = 0
    labels = {}
    for seed in range(99, 99 + runs):
        harness = TwoJobHarness("suspend", 0.5, keep_traces=True, profile=True)
        result = harness.run_once(seed=seed)
        sim = result.trace_cluster.sim
        events += sim.events_fired
        ops += sim.events_scheduled + sim.reschedules
        for family, count in collapse_labels(sim.label_counts).items():
            labels[family] = labels.get(family, 0) + count
    return {"events": events, "engine_ops": ops, "labels": labels}


def bench_scale_baseline_50(scale: float = 1.0) -> dict:
    """A mid-size SWIM replay cell: 50 trackers, facebook mix."""
    return _scale_cell("baseline", trackers=max(int(50 * scale), 5),
                       num_jobs=max(int(50 * scale), 5))


def bench_scale_shuffle_100(scale: float = 1.0) -> dict:
    """The contention-heavy replay cell: shuffle-heavy mix."""
    return _scale_cell("shuffle-heavy", trackers=max(int(100 * scale), 5),
                       num_jobs=max(int(100 * scale), 5))


def bench_shuffle_net_25(scale: float = 1.0) -> dict:
    """The network-fabric smoke cell: flow-routed shuffle under kill
    on oversubscribed uplinks (the ``shuffle`` experiment's machinery)."""
    from repro.experiments.shuffle_study import _run_once, cell_seed

    trackers = max(int(25 * scale), 5)
    num_jobs = max(int(25 * scale), 5)
    out = _run_once(
        primitive_name="kill",
        trackers=trackers,
        num_jobs=num_jobs,
        oversubscription=2.5,
        seed=cell_seed(trackers, "kill"),
        profile=True,
    )
    return {"events": int(out["events"]), "engine_ops": 0,
            "labels": out["engine"]["labels"]}


def bench_memscale_25(scale: float = 1.0) -> dict:
    """The memory-admission smoke cell: gated suspension on
    swap-constrained nodes (the ``memscale`` experiment's machinery:
    headroom snapshots per heartbeat, the admission gate on every
    preemption decision, stateful footprints through the VMM)."""
    from repro.experiments.memscale_study import _run_once, cell_seed

    trackers = max(int(25 * scale), 5)
    num_jobs = max(int(25 * scale), 5)
    out = _run_once(
        mode="suspend-gated",
        trackers=trackers,
        num_jobs=num_jobs,
        seed=cell_seed(trackers, "suspend-gated"),
        profile=True,
    )
    return {"events": int(out["events"]), "engine_ops": 0,
            "labels": out["engine"]["labels"]}


def bench_checkpoint_smoke(scale: float = 1.0) -> dict:
    """Checkpoint round trip on the fig2 cell: snapshot mid-flight,
    finish, restore, finish again -- and *assert* replay identity
    (digest + metrics equality), so a divergence fails the bench
    outright rather than drifting a counter.

    Beyond the standard fields it records ``checkpoint_bytes`` (file
    size) and ``resume_wall_s`` (restore + replay-to-completion wall
    seconds); both are advisory, like ``wall_s``.
    """
    import tempfile

    from repro.checkpoint.cells import checkpoint_cell, resume_cell

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fig2.ck")
        unbroken = checkpoint_cell("fig2", path)
        nbytes = os.path.getsize(path)
        start = time.perf_counter()
        resumed = resume_cell(path)
        resume_wall = round(time.perf_counter() - start, 4)
    if resumed != unbroken:
        raise AssertionError(
            "checkpoint replay diverged from the unbroken run: "
            f"{resumed} != {unbroken}"
        )
    # The gate here is the assertion above; the counters the generic
    # checker polices stay zero (the cells run unprofiled because
    # engine self-profile stats are the one legitimately
    # restored-vs-continued divergence).
    return {"events": 0, "engine_ops": 0,
            "checkpoint_bytes": nbytes, "resume_wall_s": resume_wall}


def bench_scale_2000(scale: float = 1.0) -> dict:
    """The standing-index cell: 2000 trackers on the steady mix, where
    hundreds of live jobs wait between heartbeats.  Gated by its
    sketch digest, its events counter and (full scale) its wall."""
    return _steady_scale_cell(
        trackers=max(int(2000 * scale), 20),
        num_jobs=max(int(600 * scale), 10),
    )


def bench_scale_5000(scale: float = 1.0) -> dict:
    """The slow-tier cell: 5000 trackers, same gates as
    ``scale_2000`` once a baseline records it.  Lives in
    ``SLOW_BENCHES`` (opt-in via ``--slow``)."""
    return _steady_scale_cell(
        trackers=max(int(5000 * scale), 20),
        num_jobs=max(int(600 * scale), 10),
    )


def _steady_scale_cell(trackers: int, num_jobs: int) -> dict:
    """One steady-mix scale cell on the phase-locked grid.

    Runs unprofiled, so its wall is the heartbeat path's own: the
    engine's per-label attribution would add overhead the wall gate
    has no use for.  The sketch digest pins what the cell computed;
    ``engine_ops`` is read off the driven cluster's engine, where idle
    trackers parked on the grid cost no schedule call each.
    """
    import hashlib

    from repro.experiments.drive import finish_replay
    from repro.experiments.scale_study import _build_run, cell_seed

    params = dict(
        scenario="steady", primitive_name="suspend", trackers=trackers,
        num_jobs=num_jobs, seed=cell_seed("steady", trackers, "suspend"),
        heartbeat_phases=4,
    )
    cluster = _build_run(**params)
    out = finish_replay(cluster, {"kind": "scale", **params})
    sketch = json.dumps(out["sketch"], sort_keys=True).encode("utf-8")
    sim = cluster.sim
    return {
        "events": int(out["events"]),
        "engine_ops": sim.events_scheduled + sim.reschedules,
        "sketch_digest": hashlib.sha256(sketch).hexdigest()[:16],
    }


def _scale_cell(scenario: str, trackers: int, num_jobs: int) -> dict:
    from repro.experiments.scale_study import _run_once, cell_seed

    out = _run_once(
        scenario=scenario,
        primitive_name="suspend",
        trackers=trackers,
        num_jobs=num_jobs,
        seed=cell_seed(scenario, trackers, "suspend"),
        profile=True,
    )
    return {"events": int(out["events"]), "engine_ops": 0,
            "labels": out["engine"]["labels"]}


def bench_ledger_sweep(scale: float = 1.0) -> dict:
    """The run-ledger observability path: a serial cached sweep plus a
    warm-cache rerun, with the replayed ledger's event counts recorded
    as strict deterministic counters (same policy as per-label event
    families).  The serial path is used deliberately -- supervised
    sweeps add wall-clock-gated ``counters`` records whose count is
    machine-dependent."""
    import tempfile

    from repro.experiments.runner import Cell, run_cells
    from repro.experiments.scale_study import cell_seed
    from repro.obs import replay
    from repro.obs.ledger import ledger_path

    trackers = max(int(5 * scale), 2)
    num_jobs = max(int(5 * scale), 2)
    cells = [
        Cell.make(
            "repro.experiments.scale_study", "_run_once",
            scenario="baseline", primitive_name=primitive,
            trackers=trackers, num_jobs=num_jobs,
            seed=cell_seed("baseline", trackers, primitive),
        )
        for primitive in ("wait", "suspend", "kill")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        results = run_cells(cells, workers=1, cache_dir=tmp)
        run_cells(cells, workers=1, cache_dir=tmp)  # warm -> cell-cached
        state = replay(ledger_path(tmp), warn=False)
    return {
        "events": int(sum(r["events"] for r in results)),
        "engine_ops": 0,
        "labels": {f"ledger/{name}": count
                   for name, count in sorted(state.event_counts.items())},
    }


BENCHES = {
    "resource_churn": bench_resource_churn,
    "two_job_suspend": bench_two_job_suspend,
    "scale_baseline_50": bench_scale_baseline_50,
    "scale_shuffle_100": bench_scale_shuffle_100,
    "shuffle_net_25": bench_shuffle_net_25,
    "memscale_25": bench_memscale_25,
    "checkpoint_smoke": bench_checkpoint_smoke,
    "ledger_sweep": bench_ledger_sweep,
    "scale_2000": bench_scale_2000,
}

#: opt-in tier (``--slow``): benches whose full-scale run takes
#: minutes; ``check()`` compares shared names only, so a smoke
#: baseline and a ``--slow`` run coexist without special-casing
SLOW_BENCHES = {
    "scale_5000": bench_scale_5000,
}

#: benches whose wall fails the check at full scale once it exceeds
#: ``MAX_WALL_RATIO`` times the recalibrated baseline.  2.35x is as
#: strict as the 3x speedup floor over a per-heartbeat rescan that it
#: replaced: a third of that rescan's 130.42 s is 43.5 s, 2.35x the
#: 18.49 s indexed wall measured beside it.
WALL_GATED = ("scale_2000", "scale_5000")
MAX_WALL_RATIO = 2.35

#: benches whose heartbeat report path is counted (``reports``,
#: ``statuses``): the paper's two-job cell, a SWIM replay, the
#: memory-admission cell and the 2000-tracker cell
REPORT_COUNTED = ("two_job_suspend", "scale_baseline_50", "memscale_25",
                  "scale_2000")
#: counters compared exactly, where the baseline records them
EXACT_COUNTERS = ("reports", "statuses")


def count_reports(fn, scale: float) -> dict:
    """Run the bench ``fn`` with ``TaskTracker.build_report`` wrapped
    to count the reports it builds and the statuses they carry."""
    from repro.hadoop.tasktracker import TaskTracker

    build_report = TaskTracker.build_report
    tally = {"reports": 0, "statuses": 0}

    def counted(self, *args, **kwargs):
        report = build_report(self, *args, **kwargs)
        tally["reports"] += 1
        tally["statuses"] += len(report.attempts)
        return report

    TaskTracker.build_report = counted
    try:
        counters = fn(scale)
    finally:
        TaskTracker.build_report = build_report
    counters.update(tally)
    return counters


def run_benches(scale: float = 1.0, slow: bool = False) -> dict:
    results = {}
    benches = dict(BENCHES)
    if slow:
        benches.update(SLOW_BENCHES)
    for name, fn in benches.items():
        start = time.perf_counter()
        if name in REPORT_COUNTED:
            counters = count_reports(fn, scale)
        else:
            counters = fn(scale)
        counters["wall_s"] = round(time.perf_counter() - start, 4)
        results[name] = counters
        print(f"  {name:>20}: {counters['wall_s']:.3f}s "
              f"events={counters['events']} ops={counters['engine_ops']}")
    return results


def check(current: dict, baseline: dict, gate_walls: bool = False) -> tuple:
    """Compare against a baseline.

    Returns ``(problems, warnings)``: *problems* (failing) come from
    the deterministic event/op counters and sketch digests, which are
    machine independent, and -- with ``gate_walls`` (full-scale runs)
    -- from ``WALL_GATED`` benches past ``MAX_WALL_RATIO``; *warnings*
    (advisory) flag benches whose wall clock regressed against the
    baseline recalibrated to this host -- each baseline wall is scaled
    by the median current/baseline ratio, so a uniformly different
    machine cancels out and only relative outliers surface.
    """
    problems = []
    warnings = []
    shared = [name for name in baseline if name in current]
    if not shared:
        return ["baseline and current share no benches"], []
    # Calibrate on the benches whose baselines are long enough to time
    # stably; sub-floor benches are pure timer noise and would corrupt
    # the median (they are policed by their counters instead).
    ratios = [
        current[name]["wall_s"] / baseline[name]["wall_s"]
        for name in shared
        if baseline[name]["wall_s"] >= WALL_FLOOR_S
    ]
    machine_factor = statistics.median(ratios) if ratios else 1.0
    for name in shared:
        cur, base = current[name], baseline[name]
        for counter in ("events", "engine_ops"):
            if base.get(counter, 0) > 0 and cur[counter] > base[counter] * COUNTER_TOLERANCE:
                problems.append(
                    f"{name}: {counter} {cur[counter]} vs baseline "
                    f"{base[counter]} (> {COUNTER_TOLERANCE:.0%})"
                )
        for counter in EXACT_COUNTERS:
            if counter in base and cur.get(counter) != base[counter]:
                problems.append(
                    f"{name}: {counter} {cur.get(counter)} != baseline "
                    f"{base[counter]} (exact)"
                )
        digest = base.get("sketch_digest")
        if digest is not None and cur.get("sketch_digest") != digest:
            problems.append(
                f"{name}: sketch digest {cur.get('sketch_digest')} != "
                f"baseline {digest}"
            )
        # Per-label event counts are exact-deterministic: any drift is
        # a behaviour change, so compare strictly (no tolerance).
        if "labels" in base and "labels" in cur and cur["labels"] != base["labels"]:
            families = sorted(set(base["labels"]) | set(cur["labels"]))
            drift = [
                f"{family} {base['labels'].get(family, 0)}->"
                f"{cur['labels'].get(family, 0)}"
                for family in families
                if base["labels"].get(family, 0) != cur["labels"].get(family, 0)
            ]
            problems.append(
                f"{name}: per-label event counts drifted "
                f"({'; '.join(drift[:8])}"
                + (f"; +{len(drift) - 8} more" if len(drift) > 8 else "")
                + ")"
            )
        if base["wall_s"] >= WALL_FLOOR_S and machine_factor > 0:
            recalibrated = base["wall_s"] * machine_factor
            if (
                gate_walls
                and name in WALL_GATED
                and cur["wall_s"] > recalibrated * MAX_WALL_RATIO
            ):
                problems.append(
                    f"{name}: wall {cur['wall_s']:.3f}s > "
                    f"{MAX_WALL_RATIO}x recalibrated baseline "
                    f"{recalibrated:.3f}s (machine x{machine_factor:.2f})"
                )
            elif cur["wall_s"] > recalibrated * WALL_TOLERANCE:
                warnings.append(
                    f"{name}: wall {cur['wall_s']:.3f}s vs recalibrated "
                    f"baseline {recalibrated:.3f}s "
                    f"(machine x{machine_factor:.2f}, > {WALL_TOLERANCE:.0%}; "
                    f"advisory -- counters are the gate)"
                )
    return problems, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR3.json",
                        help="result artifact path (default BENCH_PR3.json)")
    parser.add_argument("--check", default=None,
                        help="baseline JSON to compare against "
                        "(non-zero exit on >20%% regression)")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"write results to {BASELINE_PATH}")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (tests use <1)")
    parser.add_argument("--slow", action="store_true",
                        help="also run the slow tier "
                        f"({', '.join(SLOW_BENCHES)})")
    args = parser.parse_args(argv)

    print("bench_guard: running benches...")
    results = run_benches(scale=args.scale, slow=args.slow)
    payload = {"scale": args.scale, "benches": results}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    if args.update_baseline:
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {BASELINE_PATH}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        if baseline.get("scale") != args.scale:
            print(f"error: baseline scale {baseline.get('scale')} != "
                  f"run scale {args.scale}", file=sys.stderr)
            return 2
        problems, warnings = check(
            results, baseline["benches"], gate_walls=args.scale >= 1.0
        )
        for warning in warnings:
            print(f"bench_guard: WARNING {warning}", file=sys.stderr)
        if problems:
            print("bench_guard: REGRESSIONS DETECTED", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("bench_guard: counters within tolerance of baseline"
              + (f" ({len(warnings)} wall warnings)" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
