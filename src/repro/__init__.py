"""repro: OS-assisted task preemption for Hadoop, reproduced.

A production-quality reproduction of Pastorelli, Dell'Amico &
Michiardi, *OS-Assisted Task Preemption for Hadoop* (ICDCS 2014):

* a deterministic discrete-event **Hadoop 1 cluster simulator**
  (JobTracker/TaskTracker heartbeats, HDFS, child-JVM processes) on
  top of an **OS model** with POSIX signals, LRU paging and swap;
* the paper's **suspend/resume preemption primitive** plus the
  ``wait``, ``kill`` and Natjam-style checkpointing baselines;
* **schedulers** (the paper's dummy trigger scheduler, FIFO, FAIR and
  HFSP) with preemption hooks;
* a **real-process prototype** (:mod:`repro.posixrt`) that drives
  genuine worker processes with SIGTSTP/SIGCONT/SIGKILL;
* an **experiment harness** regenerating every figure of the paper's
  evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro.experiments import TwoJobHarness, sweep_grid

    # one seeded run of the Section IV-A microbenchmark
    run = TwoJobHarness(primitive="suspend", progress_at_launch=0.5).run_once(7)
    print(run.sojourn_th, run.makespan)

    # the paper's 20 repetitions of that point, as one cell sweep
    [point] = sweep_grid([dict(primitive="suspend", progress_at_launch=0.5)])
    print(point.sojourn_th.mean, point.makespan.mean)
"""

from repro.errors import ReproError
from repro.hadoop.cluster import HadoopCluster
from repro.hadoop.config import HadoopConfig
from repro.osmodel.config import NodeConfig
from repro.preemption import (
    KillPrimitive,
    NatjamPrimitive,
    PreemptionAdvisor,
    SuspendResumePrimitive,
    WaitPrimitive,
    make_primitive,
)
from repro.schedulers import (
    DummyScheduler,
    FairScheduler,
    FifoScheduler,
    HfspScheduler,
)
from repro.sim.engine import Simulation
from repro.units import GB, KB, MB, TB, format_duration, format_size, parse_size
from repro.workloads import (
    JobSpec,
    SwimGenerator,
    TaskSpec,
    heavy_task,
    light_task,
    make_job,
    two_job_microbenchmark,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Simulation",
    "HadoopCluster",
    "HadoopConfig",
    "NodeConfig",
    "WaitPrimitive",
    "KillPrimitive",
    "SuspendResumePrimitive",
    "NatjamPrimitive",
    "PreemptionAdvisor",
    "make_primitive",
    "FifoScheduler",
    "DummyScheduler",
    "FairScheduler",
    "HfspScheduler",
    "JobSpec",
    "TaskSpec",
    "SwimGenerator",
    "light_task",
    "heavy_task",
    "make_job",
    "two_job_microbenchmark",
    "KB",
    "MB",
    "GB",
    "TB",
    "parse_size",
    "format_size",
    "format_duration",
]
