"""Benchmark of the preemption simulator: one workload, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload steady_scale --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``steady_scale``, ``memscale_gated``
and ``paper_sweep``.

``--trace 0`` measures the end-to-end metrics with nothing
instrumented.  Repetitions of the workload run while the next one still
fits in ``--seconds`` (at least two); then fresh processes time set-up.

* ``wall_s``: median seconds of a repetition, from its first engine
  step (paper_sweep: the sweep call) to completion;
* ``setup_s``: median, over nine fresh processes, of the seconds from
  process start, imports included, to that first step;
* ``peak_rss_mb``: peak resident memory of this process plus that of
  its largest child (paper_sweep's sweep workers) over the first
  repetition;
* ``ok_frac``: jobs (paper_sweep: cells, cold and warm) that completed
  and passed the science check, over those attempted -- that is,
  ``1 - failed_frac``.

``wall_s`` and ``setup_s`` are at reference host speed, except
paper_sweep's ``wall_s``: other tenants of a shared host slow the same
code by up to ~1.7x for tens of seconds at a time, so each interval is
rescaled by the speed of a fixed reference loop timed during it (a
simulation run in this process) or around it (a set-up probe) -- see
``hostclock.py``.  paper_sweep's cells run in worker processes, which a
loop here would only delay, so its wall is raw.  The raw walls go to
stderr and to the traced run's ``trace.untraced_wall_s``.

``--trace 1`` runs one untraced and two traced repetitions (paper_sweep
serially, so its cells run in-process) and reports the first traced
repetition's per-layer metrics from ``tracer.py``, with the median
traced wall next to the untraced one and, as the tracing overhead,
their ratio at reference speed (from host-speed samples bracketing
each repetition, since samples inside it would land in spans).  The run
fails when tracing changed the science digest, left a method patched,
or when the two traced repetitions disagree on a deterministic count.
The spans and the per-layer rollup are written to ``.perfbench_out/``.

Without ``--seed`` the inputs are the pinned ones whose science digests
``reference.json`` holds; ``--bless`` re-pins them from a traced run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
#: fresh processes timed for ``setup_s``
SETUP_PROBES = 9
#: traced repetitions of a ``--trace 1`` run, whose deterministic
#: per-layer counts must agree
TRACED_REPETITIONS = 2
#: so that one repetition slowed by the host cannot set ``wall_s`` alone
MIN_REPETITIONS = 2
SETUP_MARK = "perfbench-setup-reached-at"


class SetupReached(BaseException):
    """Raised by a set-up probe at the workload's entry point (a
    ``BaseException`` so the workloads' failure handlers let it pass)."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def report(run) -> None:
    for problem in run.problems[:5]:
        log(f"FAILED: {problem.rstrip()}")
    if len(run.problems) > 5:
        log(f"... and {len(run.problems) - 5} more failures")


def timed(workload, inputs, serial, reference):
    """One repetition: ``(run, began, split, ended)`` in
    ``time.perf_counter`` seconds, split at the first call of the
    workload's entry point."""
    owner, attr = workload.entry
    inner = vars(owner)[attr]
    marks = []

    def first_call(*args, **kwargs):
        setattr(owner, attr, inner)
        marks.append(time.perf_counter())
        return inner(*args, **kwargs)

    first_call.__wrapped__ = inner
    setattr(owner, attr, first_call)
    began = time.perf_counter()
    try:
        run = workload.run(inputs, serial, reference)
    finally:
        setattr(owner, attr, inner)
    ended = time.perf_counter()
    return run, began, marks[0] if marks else ended, ended


def probe_setup(workload, inputs) -> int:
    """Set-up probe: print the clock at the workload's entry point."""
    owner, attr = workload.entry

    def reached(*args, **kwargs):
        raise SetupReached(time.monotonic())

    reached.__wrapped__ = vars(owner)[attr]
    setattr(owner, attr, reached)
    try:
        workload.run(inputs, False, None)
    except SetupReached as mark:
        print(f"{SETUP_MARK} {mark.args[0]!r}", flush=True)
        return 0
    log("set-up probe finished without reaching the workload's entry point")
    return 1


def measure_setup(args, clock) -> tuple:
    """``(start, seconds)`` from starting a fresh process to the
    workload's entry point, the start in ``time.perf_counter`` seconds
    after a bracket of host-speed samples (``time.monotonic`` is one
    system-wide clock on Linux)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--probe-setup"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    clock.bracket()
    start = time.perf_counter()
    began = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=150, check=False)
    for line in done.stdout.splitlines():
        if line.startswith(SETUP_MARK):
            return start, float(line.split()[1]) - began
    raise RuntimeError(f"set-up probe exited {done.returncode} "
                       "without reaching the workload")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_reference(name: str, seed_id) -> dict | None:
    """The pinned science for ``name`` when the inputs are the pinned ones."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            entry = json.load(fh).get(name)
    except FileNotFoundError:
        return None
    return entry if entry is not None and entry["seed_id"] == seed_id else None


def bless(name: str, entry: dict) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        pinned = {}
    pinned[name] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"pinned {name} in {REFERENCE}")


def measure(workload, inputs, reference, args, hostclock) -> dict:
    clock = hostclock.HostClock()
    walls, raw_walls, attempted, failed = [], [], 0, 0
    began = time.perf_counter()
    while True:
        if workload.in_process:
            with clock.sampling():
                run, start, split, ended = timed(workload, inputs, False, reference)
            walls.append(clock.scaled(split, ended))
        else:
            run, start, split, ended = timed(workload, inputs, False, reference)
            walls.append(ended - split)
        report(run)
        attempted += run.attempted
        failed += run.failed
        raw_walls.append(ended - split)
        log(f"{args.workload} repetition {len(walls)}: set-up "
            f"{split - start:.3f}s, wall {raw_walls[-1]:.3f}s "
            f"(wall_s {walls[-1]:.3f}s), {run.failed}/{run.attempted} failed")
        if len(walls) == 1:
            # the peak grows with the repetition count, so take it once
            rss = peak_rss_mb()
        spent = time.perf_counter() - began
        if (len(walls) >= MIN_REPETITIONS
                and spent + split - start + raw_walls[-1] > args.seconds):
            break
    probes = [measure_setup(args, clock) for _ in range(SETUP_PROBES)]
    clock.bracket()
    setups = [clock.scaled(start, start + seconds) for start, seconds in probes]
    log(f"{args.workload} set-up probes: "
        + ", ".join(f"{seconds:.3f}s" for _, seconds in probes)
        + "; at reference speed: " + ", ".join(f"{s:.3f}s" for s in setups))
    log(f"{args.workload} median wall {statistics.median(raw_walls):.3f}s, "
        f"wall_s {statistics.median(walls):.3f}s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "ok_frac": 1.0 - failed / attempted,
        },
    }


def bracketed(workload, inputs, reference, clock):
    """One serial repetition between host-speed brackets (samples taken
    during it would land inside the spans): ``(run, wall_s, wall_s at
    reference speed)``."""
    clock.bracket()
    run, _, split, ended = timed(workload, inputs, True, reference)
    clock.bracket()
    report(run)
    return run, ended - split, clock.scaled(split, ended)


def traced_repetition(workload, inputs, reference, tracer, clock):
    """One serial repetition under a fresh tracer: ``(run, wall_s,
    wall_s at reference speed, spans, methods not restored)``."""
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        run, wall, scaled = bracketed(workload, inputs, reference, clock)
    finally:
        unrestored = spans.restore()
    return run, wall, scaled, spans, unrestored


def trace_run(workload, inputs, reference, args, tracer, hostclock) -> dict:
    clock = hostclock.HostClock()
    plain, plain_wall, plain_scaled = bracketed(workload, inputs, reference, clock)
    runs, walls, scaled, counts, problems = [], [], [], [], []
    for repetition in range(TRACED_REPETITIONS):
        traced, wall, at_reference, spans, unrestored = traced_repetition(
            workload, inputs, reference, tracer, clock)
        rows = spans.rollup()
        layers = tracer.layer_metrics(spans, rows, workload.jobs(inputs))
        if traced.digest != plain.digest:
            problems.append(f"tracing changed the science digest: "
                            f"{plain.digest} -> {traced.digest}")
        if unrestored:
            problems.append("methods left patched: " + ", ".join(unrestored))
        if not runs:
            values, first_rows, first_spans = layers, rows, spans
        runs.append(traced)
        walls.append(wall)
        scaled.append(at_reference)
        counts.append({name: layers[name] for name in tracer.DETERMINISTIC})
        log(f"{args.workload} traced repetition {repetition + 1}: "
            f"wall {wall:.3f}s ({at_reference:.3f}s at reference speed, "
            f"untraced {plain_scaled:.3f}s), "
            f"{traced.failed}/{traced.attempted} failed")
    moved = sorted(name for name in tracer.DETERMINISTIC
                   if any(other[name] != counts[0][name] for other in counts))
    if moved:
        problems.append("deterministic counts differ between traced "
                        "repetitions: " + ", ".join(
                            f"{name} {[c[name] for c in counts]}"
                            for name in moved))
    for problem in problems:
        log(f"FAILED: {problem}")
    if args.bless:
        entry = {"seed_id": workload.seed_id(inputs), "digest": plain.digest}
        if plain.cells:
            entry["cells"] = plain.cells
        bless(args.workload, entry)
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.traced_wall_s"] = statistics.median(walls)
    values["trace.overhead_frac"] = statistics.median(scaled) / plain_scaled - 1.0

    from workloads import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-"
                        + ("pinned" if args.seed is None else f"seed{args.seed}"))
    first_spans.dump(stem + ".spans.gz",
                     {"workload": args.workload, "seed": args.seed})
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": values, "rollup": first_rows}, fh, indent=1,
                  sort_keys=True)
    log(f"wrote {stem}.spans.gz and {stem}.layers.json")

    attempted = plain.attempted + sum(run.attempted for run in runs)
    failed = plain.failed + sum(run.attempted if problems else run.failed
                                for run in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned inputs)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring budget of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="with --trace 1 and no --seed: re-pin "
                        "reference.json for this workload")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.bless and (args.seed is not None or not args.trace):
        parser.error("--bless needs --trace 1 and the pinned inputs (no --seed)")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import hostclock
        import tracer
        import workloads
    except ImportError as exc:
        log(f"cannot import the simulator from {ROOT}/src: {exc}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.probe_setup:
        return probe_setup(workload, inputs)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    reference = None if args.bless else load_reference(
        args.workload, workload.seed_id(inputs))
    if args.trace:
        result = trace_run(workload, inputs, reference, args, tracer, hostclock)
    else:
        result = measure(workload, inputs, reference, args, hostclock)
    values = result.pop("values")
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    result["metrics"] = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
