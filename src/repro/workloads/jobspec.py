"""Declarative job and task specifications.

A :class:`TaskSpec` captures everything the Hadoop engine needs to
build a task's work plan: how much input it parses and at what rate,
how much memory it allocates (and whether it re-reads it when
finalising, as the paper's memory-hungry tasks do), and how much
output it commits.  A :class:`JobSpec` is a named bag of task specs
plus scheduling metadata (priority, submission offset).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.units import MB


class TaskKind(enum.Enum):
    """Map or Reduce (the paper's experiments are map-only, but the
    primitive "behaves in the same way for both Map and Reduce
    tasks")."""

    MAP = "map"
    REDUCE = "reduce"


class MemoryProfile(enum.Enum):
    """How a task treats its allocated state.

    ``STATELESS`` tasks allocate only the execution-engine footprint
    (JVM, I/O buffers).  ``STATEFUL`` tasks additionally allocate
    ``footprint_bytes`` at setup, dirty it all (random writes), and
    read it back at finalisation -- the paper's worst case.
    """

    STATELESS = "stateless"
    STATEFUL = "stateful"


@dataclass
class TaskSpec:
    """One task's resource demands.

    Attributes
    ----------
    kind:
        Map or reduce.
    input_bytes:
        Bytes of input read and parsed (one HDFS block in the paper).
    parse_rate:
        Bytes parsed per second per core; the knob that sets task
        duration.
    footprint_bytes:
        Extra anonymous memory allocated at setup (0 for light tasks;
        2 GB and 2.5 GB in the paper's worst-case experiments).
    profile:
        Whether the footprint is dirtied and re-read (STATEFUL) or the
        task is a pure streaming parser (STATELESS).
    output_bytes:
        Bytes written at commit.
    input_path:
        Optional HDFS path; when set, locality information is taken
        from the namenode and the attempt prefers replica hosts.
    shuffle_bytes:
        Reduce only: bytes fetched from map outputs.
    shuffle_sources:
        Reduce only: ``(host, bytes)`` pairs naming where the map
        outputs live.  Attached at attempt-creation time by clusters
        with a network fabric (see
        :meth:`repro.hadoop.cluster.HadoopCluster`); when empty, the
        shuffle falls back to the local disk-read stand-in.
    resume_read_bytes:
        Bytes of checkpoint read back at startup before real work;
        used by Natjam-style fast-forwarded reschedules.
    """

    kind: TaskKind = TaskKind.MAP
    input_bytes: int = 512 * MB
    parse_rate: float = 7 * MB
    footprint_bytes: int = 0
    profile: MemoryProfile = MemoryProfile.STATELESS
    output_bytes: int = 8 * MB
    input_path: Optional[str] = None
    shuffle_bytes: int = 0
    shuffle_sources: tuple = ()
    resume_read_bytes: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.input_bytes < 0 or self.output_bytes < 0 or self.footprint_bytes < 0:
            raise ConfigurationError("task sizes may not be negative")
        if self.parse_rate <= 0:
            raise ConfigurationError("parse_rate must be positive")
        if self.shuffle_bytes < 0 or self.resume_read_bytes < 0:
            raise ConfigurationError("shuffle/resume sizes may not be negative")
        if self.kind is TaskKind.MAP and (self.shuffle_bytes or self.shuffle_sources):
            raise ConfigurationError("map tasks do not shuffle")
        if any(nbytes < 0 for _, nbytes in self.shuffle_sources):
            raise ConfigurationError("shuffle source sizes may not be negative")

    @property
    def stateful(self) -> bool:
        """True when the task dirties and re-reads a memory footprint."""
        return self.profile is MemoryProfile.STATEFUL and self.footprint_bytes > 0

    def with_footprint(self, footprint_bytes: int) -> "TaskSpec":
        """Copy of this spec with a (stateful) memory footprint."""
        return replace(
            self,
            footprint_bytes=footprint_bytes,
            profile=MemoryProfile.STATEFUL if footprint_bytes else self.profile,
        )


_job_ids = itertools.count(1)


@dataclass
class JobSpec:
    """A named collection of task specs plus scheduling metadata."""

    name: str
    tasks: List[TaskSpec] = field(default_factory=list)
    priority: int = 0
    submit_offset: float = 0.0
    user: str = "default"

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"job-{next(_job_ids)}"
        if self.submit_offset < 0:
            raise ConfigurationError("submit_offset may not be negative")

    @property
    def map_tasks(self) -> List[TaskSpec]:
        """The map task specs."""
        return [t for t in self.tasks if t.kind is TaskKind.MAP]

    @property
    def reduce_tasks(self) -> List[TaskSpec]:
        """The reduce task specs."""
        return [t for t in self.tasks if t.kind is TaskKind.REDUCE]

    @property
    def total_input_bytes(self) -> int:
        """Sum of all task inputs -- the 'size' that size-based
        schedulers such as HFSP prioritise on."""
        return sum(t.input_bytes for t in self.tasks)
