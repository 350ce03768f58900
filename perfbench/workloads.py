"""The benchmark's workloads and their science checks.

Each workload turns ``--seed`` into generated inputs -- study
arguments plus cell seeds derived with ``runner.derive_seed`` -- and
drives the study entry points a user reaches through ``repro run``:

* ``steady_scale``: the ``scale`` study's ``steady`` scenario with
  2000 trackers, 600 jobs, HFSP + suspend and 4 batched heartbeat
  phases (``tools/bench_guard.py``'s ``scale_2000`` cell).  It loads
  the heartbeat path and nothing else: no preemption, no network flow.
* ``memscale_gated``: the ``memscale`` study in ``suspend-gated`` mode
  with 50 trackers and 50 jobs of the memory-heavy mix on 384 MB of
  swap, shuffles routed over the fabric -- the paper's mechanism,
  through the VMM, swap and the admission gate.
* ``paper_sweep``: the Figure 2 + Figure 3 two-job grids
  ({wait, kill, suspend} x 9 progress points x 5 repetitions, 270
  cells) through ``run_cells`` with two workers into a fresh cache
  directory, then a warm rerun from that cache -- how a user
  reproduces the paper, and the only workload that exercises
  ``experiments`` and ``obs``.

Without a seed the inputs are the pinned ones: ``bench_guard``'s seed
coordinates for the replay cells and the ``run_fig2``/``run_fig3``
defaults for the sweep (``memscale_gated`` always runs its pinned
cell).  Their science digests live in ``reference.json``; runs on
other inputs are checked against invariants instead.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import memscale_study, runner, scale_study
from repro.experiments import params as P
from repro.experiments.fig2_baseline import PRIMITIVES
from repro.experiments.harness import TwoJobHarness
from repro.sim.engine import Simulation

#: scratch space for sweep caches and span dumps, inside the checkout
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_out"
)

#: keyword arguments the ROADMAP plans to delete from the entry points;
#: each is passed only while the callee still accepts it, so this same
#: benchmark measures the code before and after the deletion
OPTIONAL_KNOBS = ("heartbeat_phases", "batch_heartbeats", "on_quarantine")


def call(fn: Callable, **kwargs: Any) -> Any:
    """``fn(**kwargs)`` minus the optional knobs ``fn`` no longer takes."""
    accepted = inspect.signature(fn).parameters
    return fn(**{key: value for key, value in kwargs.items()
                 if key in accepted or key not in OPTIONAL_KNOBS})


def digest(payload: Any) -> str:
    """Short content hash; JSON writes floats with ``repr``, exactly."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Run:
    """One repetition's outcome."""

    #: jobs (paper_sweep: cells, cold plus warm) attempted
    attempted: int
    failed: int = 0
    digest: str = ""
    #: per-cell science digests (paper_sweep only)
    cells: List[Optional[str]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


class ClusterReplay:
    """One replay cell of a cluster study."""

    #: set-up ends, and the measured wall begins, at the first engine step
    entry = (Simulation, "step")
    #: the cell runs in this process, so its wall is rescaled by host
    #: speed sampled during it (see ``hostclock.py``)
    in_process = True

    def __init__(self, study, base_seed: int, coordinates: tuple,
                 invariants: Callable[[Dict], Dict[str, bool]],
                 seeded: bool = True, **arguments):
        self.study = study
        self.base_seed = base_seed
        self.coordinates = coordinates
        self.invariants = invariants
        #: False pins the inputs whatever the seed (see WORKLOADS)
        self.seeded = seeded
        self.arguments = arguments

    def inputs(self, seed: Optional[int]) -> Dict[str, Any]:
        base = self.base_seed if seed is None or not self.seeded else seed
        return dict(self.arguments,
                    seed=runner.derive_seed(base, *self.coordinates))

    def seed_id(self, inputs: Dict[str, Any]) -> Any:
        return inputs["seed"]

    def jobs(self, inputs: Dict[str, Any]) -> int:
        return inputs["num_jobs"]

    def run(self, inputs: Dict[str, Any], serial: bool,
            reference: Optional[Dict]) -> Run:
        jobs = inputs["num_jobs"]
        run = Run(attempted=jobs)
        try:
            out = call(self.study._run_once, **inputs)
        except Exception:  # a deadlocked or crashed cell fails every job
            run.fail(jobs, traceback.format_exc())
            return run
        # Science only: the engine's event count (and its sketch
        # counter) is bookkeeping that event elision may change.
        science = {k: v for k, v in out.items() if k not in ("events", "sketch")}
        science["sketch"] = {name: metric for name, metric in out["sketch"].items()
                             if not name.endswith("/events")}
        run.digest = digest(science)
        missing = jobs - int(out["jobs_completed"]) + int(out.get("jobs_failed", 0))
        if missing:
            run.fail(missing, f"{missing} of {jobs} jobs incomplete or failed")
        if reference is not None and run.digest != reference["digest"]:
            run.fail(jobs, f"science digest {run.digest} != pinned "
                           f"{reference['digest']}")
        broken = [name for name, holds in self.invariants(out).items()
                  if not holds]
        if broken:
            run.fail(jobs, "invariants broken: " + ", ".join(broken))
        return run


def _steady_invariants(out: Dict) -> Dict[str, bool]:
    return {
        "positive sojourns": out["mean_sojourn"] > 0,
        "finite makespan": math.isfinite(out["makespan"]),
    }


def _memscale_invariants(out: Dict) -> Dict[str, bool]:
    return {
        "zero OOM kills": out["oom_kills"] == 0,
        "zero wasted work": out["wasted"] == 0,
        "zero failed jobs": out["jobs_failed"] == 0,
    }


def _cell_digest(result) -> Optional[str]:
    if result is None:
        return None
    return digest({key: value for key, value in vars(result).items()
                   if key != "trace_cluster"})


def _plausible(result) -> bool:
    numbers = (result.sojourn_th, result.makespan, result.tl_paged_bytes,
               result.th_paged_bytes, result.tl_wasted_seconds)
    return (all(math.isfinite(n) for n in numbers)
            and 0 < result.sojourn_th <= result.makespan)


class PaperSweep:
    """The Figure 2 + Figure 3 grids through ``run_cells``, cold then warm."""

    #: set-up ends, and the measured wall begins, at the sweep call
    entry = (runner, "run_cells")
    #: the cells run in worker processes, whose dispatch a host-speed
    #: sample in this process would delay, so the wall stays raw
    in_process = False
    #: (figure, memory-hungry tasks, the figure runner's default base seed)
    figures = (("fig2", False, 1000), ("fig3", True, 2000))
    #: 270 cells: hundreds, yet short enough that a run repeats the
    #: sweep several times (the manifest rewrite makes a sweep's cost
    #: grow with the square of its cells)
    repetitions = 5
    workers = 2

    def inputs(self, seed: Optional[int]) -> Dict[str, Any]:
        bases, cells = [], []
        for figure, heavy, default_base in self.figures:
            base = default_base if seed is None else runner.derive_seed(seed, figure)
            bases.append(base)
            for primitive in PRIMITIVES:
                for point in P.PAPER_PROGRESS_POINTS:
                    params = TwoJobHarness(
                        primitive=primitive, progress_at_launch=point, heavy=heavy,
                    )._cell_params()
                    cells.extend(
                        runner.Cell.make("repro.experiments.harness",
                                         "_harness_cell", seed=base + i, **params)
                        for i in range(self.repetitions)
                    )
        return {"bases": bases, "cells": cells}

    def seed_id(self, inputs: Dict[str, Any]) -> Any:
        return inputs["bases"]

    def jobs(self, inputs: Dict[str, Any]) -> int:
        return 2 * len(inputs["cells"])

    def run(self, inputs: Dict[str, Any], serial: bool,
            reference: Optional[Dict]) -> Run:
        cells = inputs["cells"]
        run = Run(attempted=2 * len(cells))
        os.makedirs(OUT_DIR, exist_ok=True)
        cache = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
        sweep = dict(cells=cells, workers=1 if serial else self.workers,
                     cache_dir=cache, on_quarantine="keep")
        try:
            cold = call(runner.run_cells, **sweep)
            warm = call(runner.run_cells, **sweep)
        except Exception:
            run.fail(run.attempted, traceback.format_exc())
            return run
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        run.cells = [_cell_digest(result) for result in cold]
        run.digest = digest(run.cells)
        pinned = reference["cells"] if reference is not None else None
        for index, (result, cold_id, warm_result) in enumerate(
            zip(cold, run.cells, warm)
        ):
            if cold_id is None:
                run.fail(1, f"cell {index} quarantined")
            elif pinned is not None and cold_id != pinned[index]:
                run.fail(1, f"cell {index}: science digest {cold_id} != "
                            f"pinned {pinned[index]}")
            elif pinned is None and not _plausible(result):
                run.fail(1, f"cell {index}: implausible result {result}")
            if _cell_digest(warm_result) != cold_id or cold_id is None:
                run.fail(1, f"cell {index}: warm rerun differs from the cold run")
        return run


WORKLOADS = {
    "steady_scale": ClusterReplay(
        scale_study, 9000, ("scale", "steady", 2000, "suspend", 0),
        _steady_invariants,
        scenario="steady", primitive_name="suspend", trackers=2000,
        num_jobs=600, heartbeat_phases=4, batch_heartbeats=True,
    ),
    # Pinned to the study's own seed coordinates whatever the seed: the
    # memory-heavy mix's tail decides how many shuffles contend, so over
    # twelve seeds the 100-tracker cell's wall ranged 3.9-14.7 s with no
    # change in code, and a seeded cell measures the draw more than the
    # code.  50 trackers keep the fabric's rate recoupling a large share
    # of the profile (48 rate updates per flow operation) in a ~2 s cell,
    # so one run's median is over some fifteen repetitions.
    "memscale_gated": ClusterReplay(
        memscale_study, 12000,
        ("memscale", 50, "suspend-gated", memscale_study.SWAP_BYTES,
         memscale_study.RESERVE_BYTES, 0),
        _memscale_invariants, seeded=False,
        mode="suspend-gated", trackers=50, num_jobs=50,
    ),
    "paper_sweep": PaperSweep(),
}
