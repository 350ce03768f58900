"""Registry mapping experiment ids to their runner functions.

Each runner takes keyword arguments (``runs`` except fig1,
``base_seed``, ``sweep``, scaled-down axes for quick checks) and
returns a report object with a ``render()`` method; the CLI and the
benchmark suite both go through this table.  Runners are held as
:class:`LazyRunner` proxies so the experiment modules import only when
actually executed; :meth:`LazyRunner.resolve` returns the real
function.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from repro.errors import ConfigurationError


class LazyRunner:
    """A callable proxy that imports its experiment module on demand."""

    def __init__(self, module: str, attr: str):
        self.module = module
        self.attr = attr

    def resolve(self):
        """The real runner function (imports the module on first use)."""
        return getattr(importlib.import_module(self.module), self.attr)

    def __call__(self, **kwargs):
        return self.resolve()(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LazyRunner({self.module}.{self.attr})"


EXPERIMENTS: Dict[str, LazyRunner] = {
    "fig1": LazyRunner("repro.experiments.fig1_schedules", "run_fig1"),
    "fig2": LazyRunner("repro.experiments.fig2_baseline", "run_fig2"),
    "fig3": LazyRunner("repro.experiments.fig3_worstcase", "run_fig3"),
    "fig4": LazyRunner("repro.experiments.fig4_memory_sweep", "run_fig4"),
    "natjam": LazyRunner(
        "repro.experiments.natjam_overhead", "run_natjam_overhead"
    ),
    "eviction": LazyRunner(
        "repro.experiments.eviction_study", "run_eviction_study"
    ),
    "hfsp": LazyRunner("repro.experiments.hfsp_study", "run_hfsp_study"),
    "swappiness": LazyRunner(
        "repro.experiments.swappiness_study", "run_swappiness_study"
    ),
    "gc": LazyRunner("repro.experiments.gc_study", "run_gc_study"),
    "adaptive": LazyRunner(
        "repro.experiments.adaptive_study", "run_adaptive_study"
    ),
    "faults": LazyRunner("repro.experiments.faults_study", "run_faults_study"),
    "scale": LazyRunner("repro.experiments.scale_study", "run_scale_study"),
    "shuffle": LazyRunner(
        "repro.experiments.shuffle_study", "run_shuffle_study"
    ),
    "memscale": LazyRunner(
        "repro.experiments.memscale_study", "run_memscale_study"
    ),
}

#: one-line summaries printed by ``repro list`` (kept here, next to
#: the registry, so adding an experiment without a description is a
#: visible omission rather than a silent one)
DESCRIPTIONS: Dict[str, str] = {
    "fig1": "Gantt charts of the two-job microbenchmark schedules (Figure 1)",
    "fig2": "baseline two-job sweep: th sojourn and makespan vs tl progress (Figure 2)",
    "fig3": "worst-case sweep with 2 GB memory-hungry tasks (Figure 3)",
    "fig4": "suspended-footprint memory sweep: bytes paged to swap (Figure 4)",
    "natjam": "checkpoint-based (Natjam-style) preemption overhead comparison",
    "eviction": "eviction-policy study: which running task to preempt",
    "hfsp": "HFSP size-based scheduling with each preemption primitive",
    "swappiness": "vm.swappiness sensitivity of the suspend primitive",
    "gc": "GC policy (hoarding vs releasing collector) suspended-footprint study",
    "adaptive": "adaptive primitive selection by task progress",
    "faults": "fault injection and recovery: crashes, slow nodes, task failures",
    "scale": "cluster-at-scale SWIM replay (25/100/400 trackers, HFSP)",
    "shuffle": "network-contention study: shuffle flows on oversubscribed uplinks",
    "memscale": (
        "memory-oversubscription study: swap-aware suspend admission "
        "vs ungated SIGTSTP"
    ),
}

#: aliases accepted by the CLI
ALIASES = {
    "1": "fig1",
    "2": "fig2",
    "2a": "fig2",
    "2b": "fig2",
    "3": "fig3",
    "3a": "fig3",
    "3b": "fig3",
    "4": "fig4",
    "e5": "natjam",
    "e6": "eviction",
    "e7": "hfsp",
    "e8": "faults",
    "faults_study": "faults",
    "e9": "scale",
    "scale_study": "scale",
    "e10": "shuffle",
    "shuffle_study": "shuffle",
    "netmodel": "shuffle",
    "e11": "memscale",
    "memscale_study": "memscale",
    "memory": "memscale",
}


def resolve_name(name: str) -> str:
    """Canonical experiment id for a name or alias."""
    key = ALIASES.get(name.lower(), name.lower())
    if key not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return key


def get_experiment(name: str) -> LazyRunner:
    """Resolve an experiment id or alias to its runner."""
    return EXPERIMENTS[resolve_name(name)]


def list_experiments() -> List[str]:
    """Registered experiment ids."""
    return sorted(EXPERIMENTS)


def describe_experiment(name: str) -> str:
    """One-line description of an experiment id."""
    return DESCRIPTIONS.get(resolve_name(name), "")
