"""SWIM-like synthetic workload generation.

The paper references the SWIM workload generator (Chen et al.,
MASCOTS 2011) as the model for its synthetic jobs.  SWIM derives job
mixes from production traces: many small jobs, a long tail of large
ones, Poisson-ish arrivals.  This module generates such mixes for the
scheduler-level experiments (eviction-policy study, HFSP study, the
cluster-at-scale study); the two-job microbenchmark in
:mod:`repro.workloads.synthetic` covers the paper's own figures.

Beyond the original small-study mix, the module carries a
trace-calibrated Facebook-style mix (heavy-tailed job sizes with
shuffle-heavy reduce phases on the large bins, after the binning used
by Pastorelli et al. for HFSP) and non-Poisson arrival processes:
bursty compound arrivals and diurnal rate modulation, both fully
seeded through the simulation's :class:`~repro.sim.rng.RngStream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.rng import RngStream
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, MemoryProfile, TaskKind, TaskSpec


@dataclass
class SwimJobClass:
    """One bin of the job-size histogram.

    ``weight`` is the class's share of generated jobs; task counts and
    sizes are drawn uniformly from the given ranges, mirroring how
    SWIM bins Facebook trace jobs.  ``num_reduces`` and
    ``shuffle_fraction`` describe the class's reduce phase: each job
    shuffles ``shuffle_fraction`` of its total map input, split evenly
    over its reduce tasks (zero reduces = a map-only bin).
    ``reduce_footprint_bytes`` makes the reduces *stateful*: each
    draws that much anonymous memory (aggregation state held across
    the whole reduce), which is what puts a class's reduces in play
    for the memory-oversubscription study.
    """

    name: str
    weight: float
    num_tasks: range = field(default_factory=lambda: range(1, 3))
    input_bytes: tuple = (64 * MB, 512 * MB)
    footprint_bytes: tuple = (0, 0)
    parse_rate: tuple = (6 * MB, 9 * MB)
    num_reduces: range = field(default_factory=lambda: range(0, 1))
    shuffle_fraction: tuple = (0.0, 0.0)
    reduce_footprint_bytes: tuple = (0, 0)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError("class weight must be positive")
        if self.num_reduces.start < 0:
            raise ConfigurationError("num_reduces may not be negative")
        lo, hi = self.shuffle_fraction
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigurationError(
                "shuffle_fraction must be an ordered pair within [0, 1]"
            )
        lo, hi = self.reduce_footprint_bytes
        if not 0 <= lo <= hi:
            raise ConfigurationError(
                "reduce_footprint_bytes must be an ordered non-negative pair"
            )

    @property
    def max_reduces(self) -> int:
        """Largest reduce count the class can draw."""
        return max(self.num_reduces.stop - 1, 0)


#: A small default mix: mostly tiny jobs, some medium, few large --
#: the canonical heavy-tailed MapReduce mix SWIM reports.
DEFAULT_CLASSES: List[SwimJobClass] = [
    SwimJobClass("small", weight=0.6, num_tasks=range(1, 3),
                 input_bytes=(64 * MB, 256 * MB)),
    SwimJobClass("medium", weight=0.3, num_tasks=range(2, 6),
                 input_bytes=(256 * MB, 512 * MB)),
    SwimJobClass("large", weight=0.1, num_tasks=range(4, 10),
                 input_bytes=(512 * MB, 1024 * MB),
                 footprint_bytes=(0, int(1.5 * GB))),
]

#: Facebook-2009-flavoured bins for cluster-scale replays: the tiny
#: map-only majority, a shuffle-bearing middle, and a long tail of
#: large shuffle-heavy jobs (binning after Pastorelli et al.'s SWIM
#: treatment; absolute sizes scaled to this simulator's task bodies).
FACEBOOK_CLASSES: List[SwimJobClass] = [
    SwimJobClass("tiny", weight=0.55, num_tasks=range(1, 3),
                 input_bytes=(32 * MB, 128 * MB)),
    SwimJobClass("small", weight=0.25, num_tasks=range(2, 8),
                 input_bytes=(64 * MB, 256 * MB),
                 num_reduces=range(0, 2), shuffle_fraction=(0.1, 0.3)),
    SwimJobClass("medium", weight=0.12, num_tasks=range(8, 24),
                 input_bytes=(128 * MB, 512 * MB),
                 num_reduces=range(1, 4), shuffle_fraction=(0.2, 0.5)),
    SwimJobClass("large", weight=0.06, num_tasks=range(24, 64),
                 input_bytes=(256 * MB, 768 * MB),
                 num_reduces=range(2, 8), shuffle_fraction=(0.4, 0.8)),
    SwimJobClass("huge", weight=0.02, num_tasks=range(64, 128),
                 input_bytes=(384 * MB, 1024 * MB),
                 footprint_bytes=(0, int(1.5 * GB)),
                 num_reduces=range(4, 12), shuffle_fraction=(0.5, 0.9)),
]

#: Every reduce phase dominant: the mix that stresses shuffle traffic
#: and reduce-slot contention rather than map throughput.
SHUFFLE_HEAVY_CLASSES: List[SwimJobClass] = [
    SwimJobClass("etl", weight=0.5, num_tasks=range(2, 8),
                 input_bytes=(128 * MB, 384 * MB),
                 num_reduces=range(1, 4), shuffle_fraction=(0.5, 0.9)),
    SwimJobClass("join", weight=0.35, num_tasks=range(4, 16),
                 input_bytes=(256 * MB, 512 * MB),
                 num_reduces=range(2, 6), shuffle_fraction=(0.6, 0.95)),
    SwimJobClass("aggregate", weight=0.15, num_tasks=range(8, 32),
                 input_bytes=(256 * MB, 768 * MB),
                 num_reduces=range(4, 10), shuffle_fraction=(0.7, 1.0)),
]

#: The FACEBOOK mix with memory-hungry *stateful* bodies: reduce-
#: bearing bins hold large in-memory aggregation state and their maps
#: carry moderate footprints, so task slots hold multi-hundred-MB
#: resident sets -- the workload of the memory-oversubscription
#: (``memscale``) study.  Footprints are sized so a node's *running*
#: set (2 map slots + 1 reduce slot at the class maxima, plus JVM
#: bases) always fits in the study's RAM + swap: wait/kill replays
#: never OOM on their own, and only suspend *stacking* can
#: oversubscribe a node past Section III-A's constraint.
MEMORY_HEAVY_CLASSES: List[SwimJobClass] = [
    SwimJobClass("tiny", weight=0.50, num_tasks=range(1, 3),
                 input_bytes=(32 * MB, 128 * MB)),
    SwimJobClass("small", weight=0.25, num_tasks=range(2, 8),
                 input_bytes=(64 * MB, 256 * MB),
                 num_reduces=range(1, 2), shuffle_fraction=(0.1, 0.3),
                 reduce_footprint_bytes=(256 * MB, 512 * MB)),
    SwimJobClass("medium", weight=0.15, num_tasks=range(8, 24),
                 input_bytes=(128 * MB, 512 * MB),
                 footprint_bytes=(256 * MB, 384 * MB),
                 num_reduces=range(1, 4), shuffle_fraction=(0.2, 0.5),
                 reduce_footprint_bytes=(512 * MB, 896 * MB)),
    SwimJobClass("large", weight=0.08, num_tasks=range(24, 64),
                 input_bytes=(256 * MB, 768 * MB),
                 footprint_bytes=(320 * MB, 512 * MB),
                 num_reduces=range(2, 8), shuffle_fraction=(0.4, 0.8),
                 reduce_footprint_bytes=(640 * MB, 1152 * MB)),
    SwimJobClass("huge", weight=0.02, num_tasks=range(64, 128),
                 input_bytes=(384 * MB, 1024 * MB),
                 footprint_bytes=(384 * MB, 640 * MB),
                 num_reduces=range(4, 12), shuffle_fraction=(0.5, 0.9),
                 reduce_footprint_bytes=(896 * MB, 1408 * MB)),
]

#: One homogeneous bin of long map-only jobs (1-2 tasks of roughly
#: 300-600 s each).  Arrivals outpace completions for most of the
#: replay, so the cluster holds its whole workload live at once --
#: hundreds of concurrent jobs for the JobTracker to scan per
#: heartbeat.  This is the regime the JobTracker's standing job index
#: amortizes, and the mix bench_guard's 2000/5000-tracker scale cells
#: replay.
STEADY_CLASSES: List[SwimJobClass] = [
    SwimJobClass("span", weight=1.0, num_tasks=range(1, 3),
                 input_bytes=(2 * GB, 4 * GB)),
]

#: Named mixes the scale experiment (and the CLI) select by key.
MIXES: Dict[str, List[SwimJobClass]] = {
    "default": DEFAULT_CLASSES,
    "facebook": FACEBOOK_CLASSES,
    "shuffle-heavy": SHUFFLE_HEAVY_CLASSES,
    "memory-heavy": MEMORY_HEAVY_CLASSES,
    "steady": STEADY_CLASSES,
}


@dataclass
class ArrivalSpec:
    """How job inter-arrival times are drawn.

    * ``poisson`` -- independent exponential gaps with mean
      ``mean_interarrival`` (SWIM's baseline and the historical
      behaviour of this generator);
    * ``bursty`` -- compound arrivals: bursts of ``burst_size`` jobs
      spaced ``burst_spread`` seconds apart inside the burst, with
      exponential gaps between bursts sized so the *long-run* arrival
      rate still matches ``mean_interarrival``;
    * ``diurnal`` -- a Poisson process whose rate is modulated by
      ``1 + amplitude * sin(2*pi*t/period)``: each exponential gap is
      stretched or squeezed by the instantaneous rate, giving the slow
      day/night swell of production traces.
    """

    kind: str = "poisson"
    mean_interarrival: float = 30.0
    burst_size: range = field(default_factory=lambda: range(2, 6))
    burst_spread: float = 1.0
    period: float = 600.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty", "diurnal"):
            raise ConfigurationError(
                f"unknown arrival kind {self.kind!r}; "
                "known: poisson, bursty, diurnal"
            )
        if self.mean_interarrival < 0:
            raise ConfigurationError("mean_interarrival may not be negative")
        if self.burst_size.start < 1 or self.burst_size.stop <= self.burst_size.start:
            raise ConfigurationError("burst_size must be a non-empty range >= 1")
        if self.burst_spread < 0:
            raise ConfigurationError("burst_spread may not be negative")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")


class SwimGenerator:
    """Draws jobs from a class mix with a seeded arrival process."""

    def __init__(
        self,
        rng: RngStream,
        classes: Optional[Sequence[SwimJobClass]] = None,
        mean_interarrival: float = 30.0,
        arrival: Optional[ArrivalSpec] = None,
    ):
        self.rng = rng
        self.classes = (
            list(DEFAULT_CLASSES) if classes is None else list(classes)
        )
        if not self.classes:
            raise ConfigurationError("need at least one job class")
        self.arrival = arrival or ArrivalSpec(
            kind="poisson", mean_interarrival=mean_interarrival
        )
        self.mean_interarrival = self.arrival.mean_interarrival
        self._total_weight = sum(c.weight for c in self.classes)
        #: jobs left in the current burst (bursty arrivals only)
        self._burst_remaining = 0

    def _pick_class(self) -> SwimJobClass:
        point = self.rng.uniform(0.0, self._total_weight)
        acc = 0.0
        for cls in self.classes:
            acc += cls.weight
            if point <= acc:
                return cls
        return self.classes[-1]

    def generate_job(self, index: int) -> JobSpec:
        """Draw one job (submit_offset left at 0; see
        :meth:`generate_workload` for arrivals)."""
        cls = self._pick_class()
        num_tasks = self.rng.randint(cls.num_tasks.start, cls.num_tasks.stop - 1)
        tasks = []
        total_input = 0
        for t in range(num_tasks):
            footprint = self.rng.randint(*cls.footprint_bytes) if cls.footprint_bytes[1] else 0
            input_bytes = self.rng.randint(*cls.input_bytes)
            total_input += input_bytes
            tasks.append(
                TaskSpec(
                    kind=TaskKind.MAP,
                    input_bytes=input_bytes,
                    parse_rate=self.rng.uniform(*cls.parse_rate),
                    footprint_bytes=footprint,
                    profile=MemoryProfile.STATEFUL if footprint else MemoryProfile.STATELESS,
                    name=f"swim-{index}-{cls.name}-{t}",
                )
            )
        tasks.extend(self._reduce_tasks(cls, index, total_input))
        return JobSpec(name=f"swim-{index}-{cls.name}", tasks=tasks)

    def _reduce_tasks(
        self, cls: SwimJobClass, index: int, total_map_input: int
    ) -> List[TaskSpec]:
        """The job's reduce phase: ``shuffle_fraction`` of the map input
        split evenly over the drawn number of reduces.

        Footprint draws are guarded so classes without stateful
        reduces consume exactly the RNG stream they always did --
        existing mixes' workloads (and every digest pinned on them)
        are unchanged.
        """
        if cls.max_reduces <= 0:
            return []
        num_reduces = self.rng.randint(cls.num_reduces.start, cls.max_reduces)
        if num_reduces <= 0:
            return []
        fraction = self.rng.uniform(*cls.shuffle_fraction)
        share = int(total_map_input * fraction / num_reduces)
        tasks = []
        for t in range(num_reduces):
            footprint = (
                self.rng.randint(*cls.reduce_footprint_bytes)
                if cls.reduce_footprint_bytes[1]
                else 0
            )
            tasks.append(
                TaskSpec(
                    kind=TaskKind.REDUCE,
                    input_bytes=share,
                    parse_rate=self.rng.uniform(*cls.parse_rate),
                    shuffle_bytes=share,
                    footprint_bytes=footprint,
                    profile=(
                        MemoryProfile.STATEFUL
                        if footprint
                        else MemoryProfile.STATELESS
                    ),
                    name=f"swim-{index}-{cls.name}-r{t}",
                )
            )
        return tasks

    # -- arrivals -------------------------------------------------------------

    def _next_gap(self, clock: float) -> float:
        """Seconds until the next arrival after ``clock``."""
        spec = self.arrival
        if spec.kind == "poisson":
            return self.rng.exponential(spec.mean_interarrival)
        if spec.kind == "bursty":
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
                return self.rng.exponential(spec.burst_spread)
            size = self.rng.randint(
                spec.burst_size.start, spec.burst_size.stop - 1
            )
            # Every job still arrives every mean_interarrival seconds
            # in the long run: the inter-burst gap carries the burst's
            # whole budget minus the expected intra-burst spacing the
            # burst itself will consume.
            self._burst_remaining = size - 1
            budget = spec.mean_interarrival * size - spec.burst_spread * (size - 1)
            return self.rng.exponential(max(budget, 0.0))
        # diurnal: stretch each exponential gap by the instantaneous
        # rate 1 + A*sin(2*pi*t/period) (>= 1-A > 0 by validation).
        rate = 1.0 + spec.amplitude * math.sin(
            2.0 * math.pi * clock / spec.period
        )
        return self.rng.exponential(spec.mean_interarrival) / rate

    def generate_workload(self, num_jobs: int) -> List[JobSpec]:
        """Draw ``num_jobs`` jobs with the configured arrival process."""
        if num_jobs < 0:
            raise ConfigurationError("num_jobs may not be negative")
        self._burst_remaining = 0
        jobs = []
        clock = 0.0
        for i in range(num_jobs):
            job = self.generate_job(i)
            job.submit_offset = clock
            jobs.append(job)
            clock += self._next_gap(clock)
        return jobs
