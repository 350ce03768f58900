"""Experiment harness: one module per figure of the paper.

========== ===================================== =============================
Experiment Paper artefact                        Module
========== ===================================== =============================
E1         Figure 1 (execution schedules)        :mod:`repro.experiments.fig1_schedules`
E2a/E2b    Figure 2 (baseline sojourn/makespan)  :mod:`repro.experiments.fig2_baseline`
E3a/E3b    Figure 3 (worst-case, memory-hungry)  :mod:`repro.experiments.fig3_worstcase`
E4         Figure 4 (paged bytes and overheads)  :mod:`repro.experiments.fig4_memory_sweep`
E5         Natjam ~7% makespan overhead claim    :mod:`repro.experiments.natjam_overhead`
E6         Eviction-policy ablation (Section V)  :mod:`repro.experiments.eviction_study`
E7         HFSP + suspend preliminary result     :mod:`repro.experiments.hfsp_study`
========== ===================================== =============================

All experiments build on :class:`~repro.experiments.harness.TwoJobHarness`
(the paper's Section IV-A microbenchmark, one seed per run) or on the
multi-job cluster builders, with calibration constants in
:mod:`repro.experiments.params`.  Every experiment runs its grid of
seeded repetitions the same way: as one list of cells through its
``sweep`` (:class:`~repro.experiments.runner.SweepOptions`), two-job
grids through :func:`~repro.experiments.harness.sweep_grid`.
"""

from repro.experiments.harness import TwoJobHarness, TwoJobResult, sweep_grid
from repro.experiments.params import (
    PAPER_PROGRESS_POINTS,
    paper_hadoop_config,
    paper_node_config,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "TwoJobHarness",
    "TwoJobResult",
    "sweep_grid",
    "paper_node_config",
    "paper_hadoop_config",
    "PAPER_PROGRESS_POINTS",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]
