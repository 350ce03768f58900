"""Job/task schedulers.

The paper factors preemption *primitives* (this library's
:mod:`repro.preemption`) out of eviction *policies* (the scheduler's
job).  This package provides:

* :class:`~repro.schedulers.dummy.DummyScheduler` -- the paper's
  trigger-driven scheduler, "a new scheduling component for Hadoop ...
  which dictates task eviction according to static configuration
  files";
* :class:`~repro.schedulers.fifo.FifoScheduler` -- Hadoop's default
  priority-then-FIFO queue (JobQueueTaskScheduler);
* :class:`~repro.schedulers.fair.FairScheduler` -- a simplified FAIR
  scheduler, the stock Hadoop scheduler that preempts;
* :class:`~repro.schedulers.hfsp.HfspScheduler` -- the authors' HFSP
  size-based scheduler (the conclusion reports preliminary results of
  the suspend primitive inside HFSP);
* :class:`~repro.schedulers.failure_aware.FailureAwareFifoScheduler`
  -- ATLAS-style failure-history awareness (blacklist avoidance,
  per-task tracker memory, recovery-first resubmission).
"""

from repro.schedulers.base import TaskScheduler
from repro.schedulers.dummy import DummyScheduler
from repro.schedulers.failure_aware import (
    FailureAwareFifoScheduler,
    FailureAwareMixin,
)
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.hfsp import HfspScheduler

__all__ = [
    "TaskScheduler",
    "FifoScheduler",
    "DummyScheduler",
    "FairScheduler",
    "HfspScheduler",
    "FailureAwareMixin",
    "FailureAwareFifoScheduler",
]
