"""Command-line interface.

::

    repro list                          # experiments available
    repro run faults_study --runs 3     # one experiment by name
    repro reproduce --figure 2 --runs 20 --out results/
    repro reproduce --all --quick
    repro schedule --primitive suspend --progress 50
    repro trace fig2 --out run.json     # Perfetto/Chrome trace export
    repro profile scale --quick         # cProfile hotspot report
    repro profile scale --engine        # engine self-profile (labels)
    repro checkpoint fig2 --at 40 --out ck.bin   # snapshot mid-flight
    repro resume ck.bin                 # restore + finish the frozen run
    repro run scale --workers 4 --checkpoint-dir results/sweep
    repro watch results/sweep           # ANSI dashboard over a ledger
    repro real-demo --input-mb 24       # real-process prototype

``run`` executes a single registered experiment (name or alias);
``reproduce`` regenerates the paper's figures (tables + ASCII plots +
CSV files); ``schedule`` prints one Figure 1 style Gantt chart;
``real-demo`` runs the POSIX-signal prototype with real worker
processes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.checkpoint.cells import CELL_DEFAULTS
from repro.errors import ReproError
from repro.experiments.registry import (
    describe_experiment,
    get_experiment,
    list_experiments,
    resolve_name,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'OS-Assisted Task Preemption for Hadoop' "
        "(ICDCS 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment by name")
    run.add_argument("experiment", help="experiment id or alias "
                     "(see `repro list`)")
    run.add_argument("--runs", type=int, default=None,
                     help="averaged runs per data point")
    run.add_argument("--seed", type=int, default=None,
                     help="base seed of the experiment's repetitions")
    run.add_argument("--quick", action="store_true",
                     help="scaled-down axes and 2 runs per point")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes sharding the experiment grid "
                     "(results are identical for any value; 0 = all cores)")
    run.add_argument("--out", default=None,
                     help="directory for CSV output (optional)")
    run.add_argument("--no-plots", action="store_true",
                     help="tables only, no ASCII plots")
    run.add_argument("--quiet", "-q", action="store_true",
                     help="suppress per-cell progress lines (stderr)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="persist each finished grid cell here; a killed "
                     "sweep restarted with the same directory re-runs "
                     "only the missing cells")
    run.add_argument("--max-retries", type=int, default=None,
                     help="per-cell retry budget for crashed/hung/corrupt "
                     "worker attempts before the cell is quarantined "
                     "(default 2; results are identical with or without "
                     "retries)")
    run.add_argument("--cell-timeout", type=float, default=None,
                     help="wall-clock seconds one cell attempt may run "
                     "before its worker is killed and the cell retried")
    run.add_argument("--snapshot-every", type=float, default=None,
                     help="auto-snapshot long resumable cells every N "
                     "simulated seconds into --checkpoint-dir, so a "
                     "crashed shard resumes mid-cell (default 900)")
    run.add_argument("--chaos", type=int, default=None, metavar="SEED",
                     help="inject a seeded chaos plan (worker kills, "
                     "hangs, corrupt payloads) into the sweep; results "
                     "must be -- and are -- identical to a clean run")

    rep = sub.add_parser("reproduce", help="regenerate figures")
    rep.add_argument("--figure", "-f", action="append", default=[],
                     help="figure/experiment id (fig1..fig4, natjam, "
                     "eviction, hfsp); repeatable")
    rep.add_argument("--all", action="store_true", help="run every experiment")
    rep.add_argument("--runs", type=int, default=None,
                     help="averaged runs per data point (default: paper's 20)")
    rep.add_argument("--quick", action="store_true",
                     help="scaled-down axes and 2 runs per point")
    rep.add_argument("--workers", type=int, default=1,
                     help="worker processes sharding each experiment grid "
                     "(results are identical for any value; 0 = all cores)")
    rep.add_argument("--out", default=None,
                     help="directory for CSV output (optional)")
    rep.add_argument("--no-plots", action="store_true",
                     help="tables only, no ASCII plots")
    rep.add_argument("--quiet", "-q", action="store_true",
                     help="suppress per-cell progress lines (stderr)")

    sch = sub.add_parser("schedule", help="print one execution schedule")
    sch.add_argument("--primitive", "-p", default="suspend",
                     choices=["wait", "kill", "suspend", "natjam"])
    sch.add_argument("--progress", type=float, default=50.0,
                     help="tl progress at launch of th (percent)")
    sch.add_argument("--heavy", action="store_true",
                     help="memory-hungry tasks (2 GB footprints)")

    trace = sub.add_parser(
        "trace",
        help="export a Chrome trace-event / Perfetto JSON span trace "
        "of one experiment cell",
    )
    trace.add_argument("experiment", help="experiment to trace "
                       "(fig2, fig3, scale, shuffle, memscale)")
    trace.add_argument("--quick", action="store_true",
                       help="smaller replay cell (10 trackers)")
    trace.add_argument("--seed", type=int, default=None,
                       help="override the cell's derived seed")
    trace.add_argument("--out", default="run.json",
                       help="output JSON path (default run.json); load "
                       "it at https://ui.perfetto.dev")
    trace.add_argument("--heartbeats", action="store_true",
                       help="include per-heartbeat instant events "
                       "(verbose)")

    prof = sub.add_parser(
        "profile", help="run one experiment under cProfile and print hotspots"
    )
    prof.add_argument("experiment", help="experiment id or alias "
                      "(see `repro list`)")
    prof.add_argument("--runs", type=int, default=None,
                      help="averaged runs per data point")
    prof.add_argument("--quick", action="store_true",
                      help="scaled-down axes and 2 runs per point")
    prof.add_argument("--top", type=int, default=20,
                      help="rows of the profile report (default 20)")
    prof.add_argument("--sort", default="cumulative",
                      choices=["cumulative", "tottime", "calls"],
                      help="pstats sort order (default cumulative)")
    prof.add_argument("--out", default=None,
                      help="also dump raw pstats data to this file "
                      "(inspect later with `python -m pstats`)")
    prof.add_argument("--engine", action="store_true",
                      help="engine self-profile instead of cProfile: "
                      "per-label fired-event counts and callback wall "
                      "time for a representative cell")

    ckpt = sub.add_parser(
        "checkpoint",
        help="run a representative cell, snapshotting mid-flight",
    )
    ckpt.add_argument("cell", help="checkpointable cell "
                      f"({', '.join(CELL_DEFAULTS)})")
    ckpt.add_argument("--at", type=float, default=None,
                      help="virtual time of the snapshot "
                      "(default: the cell's mid-flight instant)")
    ckpt.add_argument("--seed", type=int, default=None,
                      help="override the cell's derived seed")
    ckpt.add_argument("--out", default="ck.bin",
                      help="checkpoint file path (default ck.bin)")

    res = sub.add_parser(
        "resume",
        help="restore a checkpoint file and finish its run "
        "(or report a --checkpoint-dir sweep's completion state)",
    )
    res.add_argument("path", help="checkpoint file written by "
                     "`repro checkpoint`, or a --checkpoint-dir "
                     "sweep directory")

    wat = sub.add_parser(
        "watch",
        help="live ANSI terminal dashboard for a sweep "
        "(progress, ETA, mid-sweep quantiles)",
    )
    wat.add_argument("target", help="a --checkpoint-dir sweep directory "
                     "or a ledger.jsonl file")
    wat.add_argument("--interval", type=float, default=0.5,
                     help="redraw period in seconds (default 0.5)")
    wat.add_argument("--once", action="store_true",
                     help="render one frame and exit")
    wat.add_argument("--max-seconds", type=float, default=None,
                     help="give up after this many wall seconds "
                     "(exit code 1) instead of waiting for sweep-finish")

    demo = sub.add_parser("real-demo", help="real-process prototype demo")
    demo.add_argument("--input-mb", type=int, default=24,
                      help="synthetic input size per task (MB)")
    demo.add_argument("--progress", type=float, default=50.0,
                      help="tl progress at launch of th (percent)")
    demo.add_argument("--memory-mb", type=int, default=0,
                      help="extra memory each worker allocates (MB)")
    return parser


def _cmd_list() -> int:
    print("experiments:")
    names = list_experiments()
    width = max(len(name) for name in names)
    for name in names:
        print(f"  {name:<{width}}  {describe_experiment(name)}")
    return 0


def _quick_kwargs(name: str) -> dict:
    """Scaled-down parameters for --quick."""
    if name in ("fig2", "fig3"):
        return {"runs": 2, "progress_points": [0.25, 0.5, 0.75]}
    if name == "fig4":
        from repro.units import GB

        return {"runs": 2, "memory_points": [0, int(1.25 * GB), int(2.5 * GB)]}
    if name == "natjam":
        return {"runs": 2, "progress_points": [0.5]}
    if name in ("eviction", "hfsp", "gc"):
        return {"runs": 2}
    if name == "swappiness":
        return {"runs": 2, "swappiness_values": [0, 60]}
    if name == "adaptive":
        return {"runs": 2, "progress_points": [0.02, 0.5, 0.98]}
    if name == "faults":
        return {"runs": 1}
    if name == "scale":
        return {
            "runs": 1,
            "cluster_sizes": [25],
            "scenarios": ["baseline", "burst"],
            "num_jobs": 15,
        }
    if name == "shuffle":
        return {"runs": 1, "cluster_sizes": [10], "num_jobs": 12}
    if name == "memscale":
        return {"runs": 1, "cluster_sizes": [10], "num_jobs": 12}
    return {}


def _emit_report(report, out: Optional[str], plots: bool) -> None:
    """Print one report and optionally write its CSV series."""
    print(report.render(plots=plots))
    print()
    if out:
        os.makedirs(out, exist_ok=True)
        for series_name, csv_text in report.to_csv().items():
            path = os.path.join(out, f"{series_name}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(csv_text)
            print(f"wrote {path}")


def _resolve_workers(requested: int) -> int:
    """CLI worker count: 0 means one worker per core."""
    if requested < 0:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"--workers must be >= 0 (got {requested}); 0 means all cores"
        )
    if requested == 0:
        from repro.experiments.runner import default_workers

        return default_workers()
    return requested


def _sweep_options(args):
    """The command's one :class:`~repro.experiments.runner.SweepOptions`,
    built from its flags (``reproduce`` has only --workers and --quiet)
    and passed to every experiment it runs."""
    from repro.experiments.runner import SweepOptions

    flags = vars(args)
    workers = _resolve_workers(args.workers)
    cache_dir = flags.get("checkpoint_dir")
    knobs = {
        key: flags[key]
        for key in ("max_retries", "cell_timeout", "snapshot_every")
        if flags.get(key) is not None
    }
    if "snapshot_every" in knobs and cache_dir is None:
        print("warning: mid-cell snapshots are written into "
              "--checkpoint-dir; ignoring --snapshot-every without one",
              file=sys.stderr)
    supervise = None
    if knobs:
        from repro.experiments.supervisor import SupervisorConfig

        supervise = SupervisorConfig(**knobs)
    return SweepOptions(
        workers=workers,
        cache_dir=cache_dir,
        # Per-cell progress lines: on by default for parallel runs
        # (the ones long enough to want them), off under --quiet.
        progress=workers > 1 and not args.quiet,
        supervise=supervise,
        chaos_seed=flags.get("chaos"),
    )


def _runner_kwargs(name: str, args, sweep) -> dict:
    """One runner's arguments from the command's flags: the --quick
    axes, --runs (fig1 has no repetitions), --seed and the sweep."""
    kwargs = _quick_kwargs(name) if args.quick else {}
    if args.runs is not None and name != "fig1":
        kwargs["runs"] = args.runs
    if getattr(args, "seed", None) is not None:
        kwargs["base_seed"] = args.seed
    kwargs["sweep"] = sweep
    return kwargs


def _cmd_run(args) -> int:
    name = resolve_name(args.experiment)
    sweep = _sweep_options(args)
    kwargs = _runner_kwargs(name, args, sweep)
    report = get_experiment(name)(**kwargs)
    _emit_report(report, args.out, plots=not args.no_plots)
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.watch import watch

    return watch(
        args.target,
        interval=args.interval,
        once=args.once,
        max_seconds=args.max_seconds,
    )


def _cmd_reproduce(args) -> int:
    names: List[str] = list(args.figure)
    if args.all:
        names = list_experiments()
    if not names:
        print("nothing to do: pass --figure or --all", file=sys.stderr)
        return 2
    sweep = _sweep_options(args)
    exit_code = 0
    for raw_name in names:
        name = resolve_name(raw_name)
        report = get_experiment(name)(**_runner_kwargs(name, args, sweep))
        _emit_report(report, args.out, plots=not args.no_plots)
    return exit_code


def _cmd_trace(args) -> int:
    """Trace one experiment cell and export Perfetto JSON.

    Runs a representative cell with a telemetry span collector
    subscribed (observation only -- the run is event-for-event the one
    the sweep would do), stitches the flat trace records into
    attempt/suspend/episode/transfer spans, and writes Chrome
    trace-event JSON for https://ui.perfetto.dev.
    """
    from repro.telemetry.capture import capture_experiment
    from repro.telemetry.export import write_chrome_trace

    capture = capture_experiment(
        resolve_name(args.experiment),
        quick=args.quick,
        seed=args.seed,
        heartbeats=args.heartbeats,
    )
    write_chrome_trace(args.out, capture.to_chrome())
    print(f"wrote {args.out}")
    for cell in capture.cells:
        episodes = cell.collector.by_category("episode")
        wasted = sum(s.args.get("wasted_seconds", 0.0) for s in episodes)
        print(
            f"  {cell.name}: {len(cell.collector.spans)} spans, "
            f"{len(episodes)} preemption episodes "
            f"({wasted:.1f}s wasted), "
            f"{cell.engine.get('events_fired', 0)} engine events"
        )
    print("open the file at https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _cmd_profile(args) -> int:
    """Run one experiment under cProfile; print the hotspot table.

    The fast path to "where did this replay's time go" -- the same
    loop the PR-level optimisation work uses, now one command:
    ``repro profile scale --quick``.  With ``--engine`` the engine
    profiles *itself* instead: deterministic per-label fired-event
    counts with wall-time attribution, for a representative cell.
    """
    import cProfile
    import pstats

    if args.engine:
        from repro.telemetry.capture import capture_experiment
        from repro.telemetry.profiling import render_engine_stats

        capture = capture_experiment(
            resolve_name(args.experiment), quick=args.quick, profile=True
        )
        for cell in capture.cells:
            print(f"=== {cell.name} ===")
            print(render_engine_stats(cell.engine, top=args.top))
            print()
        return 0

    from repro.experiments.runner import SweepOptions

    name = resolve_name(args.experiment)
    runner = get_experiment(name)
    kwargs = _runner_kwargs(name, args, SweepOptions())
    profiler = cProfile.Profile()
    profiler.enable()
    runner(**kwargs)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_schedule(args) -> int:
    from repro.experiments.fig1_schedules import schedule_cell
    from repro.metrics.timeline import render_gantt

    segments, result = schedule_cell(
        args.primitive, args.progress / 100.0, seed=500, heavy=args.heavy
    )
    print(render_gantt(segments))
    print(
        f"th sojourn {result.sojourn_th:.1f}s, makespan {result.makespan:.1f}s, "
        f"tl paged {result.tl_paged_bytes / (1024 ** 2):.0f} MB"
    )
    return 0


def _print_cell_metrics(metrics: dict) -> None:
    width = max(len(key) for key in metrics)
    for key, value in sorted(metrics.items()):
        if isinstance(value, float):
            print(f"  {key:<{width}}  {value:.6g}")
        else:
            print(f"  {key:<{width}}  {value}")


def _cmd_checkpoint(args) -> int:
    """Run one representative cell, freezing it mid-flight to a file.

    The run continues to completion after the snapshot, so the printed
    metrics are the *unbroken* reference -- ``repro resume`` on the
    written file must reproduce every one of them, ``trace_digest``
    included.
    """
    from repro.checkpoint.cells import checkpoint_cell
    from repro.checkpoint.core import read_header

    metrics = checkpoint_cell(
        args.cell, args.out, at=args.at, seed=args.seed
    )
    header = read_header(args.out)
    print(f"wrote {args.out} ({os.path.getsize(args.out)} bytes, "
          f"layers: {', '.join(header.get('layers', []))})")
    print("unbroken-run metrics (resume must reproduce these):")
    _print_cell_metrics(metrics)
    return 0


def _cmd_resume(args) -> int:
    if not os.path.exists(args.path):
        print(f"error: {args.path}: no such checkpoint file or sweep "
              "directory", file=sys.stderr)
        return 1
    if os.path.isdir(args.path):
        return _report_sweep_dir(args.path)
    from repro.checkpoint.cells import resume_cell

    metrics = resume_cell(args.path)
    print(f"resumed {args.path}:")
    _print_cell_metrics(metrics)
    return 0


def _report_sweep_dir(directory: str) -> int:
    """Completion report for a ``--checkpoint-dir`` sweep directory."""
    import json

    from repro.experiments.runner import cache_is_current

    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError:
        print(
            f"error: {directory} has no manifest.json -- was it written "
            "by `repro run ... --checkpoint-dir`?",
            file=sys.stderr,
        )
        return 1
    # The sweep flushes the manifest after every finished cell, but a
    # kill between a cell's cache write and that flush leaves it one
    # cell behind; the cache files themselves are the truth -- those
    # this source tree would reuse, not those another tree wrote.
    cells = manifest.get("cells", [])
    for entry in cells:
        entry["done"] = cache_is_current(directory, str(entry.get("key")))
    done = sum(1 for entry in cells if entry["done"])
    total = manifest.get("total", len(cells))
    quarantined = [entry for entry in cells if entry.get("quarantined")]
    print(f"{directory}: {done}/{total} cells checkpointed"
          + (f", {len(quarantined)} quarantined" if quarantined else ""))
    for entry in cells:
        mark = "x" if entry["done"] else (
            "q" if entry.get("quarantined") else " "
        )
        line = f"  [{mark}] {entry.get('label', entry.get('key'))}"
        if entry.get("quarantined") and entry.get("causes"):
            line += f"  <- {entry['causes'][-1]}"
        print(line)
    stats = manifest.get("supervisor")
    if stats:
        interesting = {k: v for k, v in sorted(stats.items()) if v}
        if interesting:
            print("supervisor: " + ", ".join(
                f"{k}={v}" for k, v in interesting.items()
            ))
    if done < total:
        print(
            "re-run the original `repro run ... --checkpoint-dir "
            f"{directory}` command to finish the remaining cells"
            + (" (quarantined cells retry from scratch)"
               if quarantined else "")
        )
    return 0


def _cmd_real_demo(args) -> int:
    from repro.posixrt.runner import MiniExperiment

    experiment = MiniExperiment(
        input_mb=args.input_mb,
        progress_at_launch=args.progress / 100.0,
        memory_mb=args.memory_mb,
    )
    rows = experiment.compare(("wait", "kill", "suspend"))
    print(f"{'primitive':>10} | {'th sojourn (s)':>14} | {'makespan (s)':>12}")
    for name, outcome in rows.items():
        print(f"{name:>10} | {outcome.sojourn_th:14.2f} | {outcome.makespan:12.2f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "schedule":
            return _cmd_schedule(args)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "real-demo":
            return _cmd_real_demo(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
