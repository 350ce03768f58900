"""Workload specs and generators."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry
from repro.units import GB, MB
from repro.workloads.jobspec import JobSpec, MemoryProfile, TaskKind, TaskSpec
from repro.workloads.swim import (
    DEFAULT_CLASSES,
    FACEBOOK_CLASSES,
    MIXES,
    SHUFFLE_HEAVY_CLASSES,
    ArrivalSpec,
    SwimGenerator,
    SwimJobClass,
)
from repro.workloads.synthetic import (
    PAPER_INPUT_BYTES,
    WORST_CASE_FOOTPRINT,
    heavy_task,
    light_task,
    make_job,
    two_job_microbenchmark,
)


class TestTaskSpec:
    def test_defaults_are_paper_shaped(self):
        spec = TaskSpec()
        assert spec.kind is TaskKind.MAP
        assert spec.input_bytes == 512 * MB
        assert not spec.stateful

    def test_stateful_requires_footprint(self):
        spec = TaskSpec(profile=MemoryProfile.STATEFUL, footprint_bytes=0)
        assert not spec.stateful
        spec = TaskSpec(profile=MemoryProfile.STATEFUL, footprint_bytes=GB)
        assert spec.stateful

    def test_with_footprint(self):
        spec = TaskSpec().with_footprint(GB)
        assert spec.stateful
        assert spec.footprint_bytes == GB

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(input_bytes=-1)
        with pytest.raises(ConfigurationError):
            TaskSpec(parse_rate=0)
        with pytest.raises(ConfigurationError):
            TaskSpec(shuffle_bytes=5)  # map tasks do not shuffle
        with pytest.raises(ConfigurationError):
            TaskSpec(resume_read_bytes=-1)

    def test_reduce_may_shuffle(self):
        spec = TaskSpec(kind=TaskKind.REDUCE, shuffle_bytes=5 * MB)
        assert spec.shuffle_bytes == 5 * MB


class TestJobSpec:
    def test_auto_name(self):
        spec = JobSpec(name="")
        assert spec.name.startswith("job-")

    def test_kind_views(self):
        spec = JobSpec(
            name="j",
            tasks=[TaskSpec(), TaskSpec(kind=TaskKind.REDUCE, shuffle_bytes=MB)],
        )
        assert len(spec.map_tasks) == 1
        assert len(spec.reduce_tasks) == 1

    def test_total_input_and_estimate(self):
        spec = JobSpec(
            name="j",
            tasks=[TaskSpec(input_bytes=70 * MB, parse_rate=7 * MB)] * 2,
        )
        assert spec.total_input_bytes == 140 * MB

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(name="j", submit_offset=-1.0)


class TestSynthetic:
    def test_light_task(self):
        spec = light_task()
        assert spec.input_bytes == PAPER_INPUT_BYTES
        assert not spec.stateful

    def test_heavy_task(self):
        spec = heavy_task()
        assert spec.footprint_bytes == WORST_CASE_FOOTPRINT
        assert spec.stateful

    def test_make_job(self):
        job = make_job("x", light_task(), priority=3)
        assert job.priority == 3
        assert len(job.tasks) == 1

    def test_microbenchmark_light(self):
        tl, th = two_job_microbenchmark()
        assert tl.priority < th.priority
        assert not tl.tasks[0].stateful

    def test_microbenchmark_heavy(self):
        tl, th = two_job_microbenchmark(heavy=True, tl_footprint=GB, th_footprint=2 * GB)
        assert tl.tasks[0].footprint_bytes == GB
        assert th.tasks[0].footprint_bytes == 2 * GB


class TestSwim:
    def stream(self, seed=11):
        return RngRegistry(seed).stream("swim")

    def test_deterministic_per_seed(self):
        a = SwimGenerator(self.stream()).generate_workload(10)
        b = SwimGenerator(self.stream()).generate_workload(10)
        assert [j.name for j in a] == [j.name for j in b]
        assert [j.submit_offset for j in a] == [j.submit_offset for j in b]

    def test_arrivals_monotonic(self):
        jobs = SwimGenerator(self.stream()).generate_workload(20)
        offsets = [j.submit_offset for j in jobs]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0.0

    def test_sizes_within_class_bounds(self):
        jobs = SwimGenerator(self.stream()).generate_workload(30)
        lo = min(c.input_bytes[0] for c in DEFAULT_CLASSES)
        hi = max(c.input_bytes[1] for c in DEFAULT_CLASSES)
        for job in jobs:
            for task in job.tasks:
                assert lo <= task.input_bytes <= hi

    def test_mix_respects_weights_roughly(self):
        jobs = SwimGenerator(self.stream(), mean_interarrival=1.0).generate_workload(300)
        small = sum(1 for j in jobs if "small" in j.name)
        large = sum(1 for j in jobs if "large" in j.name)
        assert small > large  # 60% vs 10% weights

    def test_custom_classes(self):
        cls = SwimJobClass("only", weight=1.0, num_tasks=range(3, 4))
        jobs = SwimGenerator(self.stream(), classes=[cls]).generate_workload(5)
        assert all(len(j.tasks) == 3 for j in jobs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SwimJobClass("bad", weight=0)
        with pytest.raises(ConfigurationError):
            SwimGenerator(self.stream(), classes=[])
        with pytest.raises(ConfigurationError):
            SwimGenerator(self.stream()).generate_workload(-1)

    # -- edge cases ----------------------------------------------------------

    def test_zero_jobs(self):
        assert SwimGenerator(self.stream()).generate_workload(0) == []

    def test_single_class_always_drawn(self):
        cls = SwimJobClass("solo", weight=0.001, num_tasks=range(2, 3))
        jobs = SwimGenerator(self.stream(), classes=[cls]).generate_workload(20)
        assert all("solo" in j.name for j in jobs)
        assert all(len(j.tasks) == 2 for j in jobs)

    def test_degenerate_weight_mix(self):
        # A vanishing weight next to a dominating one must neither
        # crash nor ever be over-drawn; the dominant class wins nearly
        # always but the draw stays well-defined.
        classes = [
            SwimJobClass("dust", weight=1e-12, num_tasks=range(1, 2)),
            SwimJobClass("giant", weight=1e6, num_tasks=range(1, 2)),
        ]
        jobs = SwimGenerator(self.stream(), classes=classes).generate_workload(50)
        assert sum(1 for j in jobs if "giant" in j.name) >= 49

    def test_equal_weights_all_drawn(self):
        classes = [
            SwimJobClass(f"c{i}", weight=1.0, num_tasks=range(1, 2))
            for i in range(4)
        ]
        jobs = SwimGenerator(
            self.stream(), classes=classes, mean_interarrival=1.0
        ).generate_workload(200)
        names = {j.name.split("-")[-1] for j in jobs}
        assert names == {"c0", "c1", "c2", "c3"}

    def test_shuffle_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            SwimJobClass("bad", weight=1.0, shuffle_fraction=(0.8, 0.2))
        with pytest.raises(ConfigurationError):
            SwimJobClass("bad", weight=1.0, shuffle_fraction=(0.5, 1.5))
        with pytest.raises(ConfigurationError):
            SwimJobClass("bad", weight=1.0, num_reduces=range(-1, 2))


class TestSwimReduces:
    def stream(self, seed=17):
        return RngRegistry(seed).stream("swim")

    def test_default_mix_is_map_only(self):
        jobs = SwimGenerator(self.stream()).generate_workload(30)
        assert all(not j.reduce_tasks for j in jobs)

    def test_shuffle_heavy_mix_always_reduces(self):
        jobs = SwimGenerator(
            self.stream(), classes=SHUFFLE_HEAVY_CLASSES
        ).generate_workload(15)
        for job in jobs:
            assert job.reduce_tasks
            for reduce_spec in job.reduce_tasks:
                assert reduce_spec.shuffle_bytes > 0
                assert reduce_spec.input_bytes == reduce_spec.shuffle_bytes

    def test_shuffle_volume_bounded_by_map_input(self):
        jobs = SwimGenerator(
            self.stream(), classes=FACEBOOK_CLASSES
        ).generate_workload(40)
        for job in jobs:
            map_input = sum(t.input_bytes for t in job.map_tasks)
            shuffled = sum(t.shuffle_bytes for t in job.reduce_tasks)
            assert shuffled <= map_input

    def test_named_mixes_registry(self):
        assert set(MIXES) == {
            "default", "facebook", "shuffle-heavy", "memory-heavy", "steady"
        }
        assert MIXES["default"] is DEFAULT_CLASSES


class TestArrivals:
    def stream(self, seed=23):
        return RngRegistry(seed).stream("swim")

    def gen(self, arrival):
        return SwimGenerator(self.stream(), arrival=arrival)

    def test_arrival_kind_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="lunar")
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="diurnal", amplitude=1.0)
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="diurnal", period=0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="bursty", burst_size=range(0, 3))

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_offsets_monotonic_and_deterministic(self, kind):
        spec = ArrivalSpec(kind=kind, mean_interarrival=5.0)
        first = self.gen(spec).generate_workload(40)
        second = self.gen(spec).generate_workload(40)
        offsets = [j.submit_offset for j in first]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0.0
        assert offsets == [j.submit_offset for j in second]

    def test_bursty_clusters_arrivals(self):
        spec = ArrivalSpec(
            kind="bursty",
            mean_interarrival=100.0,
            burst_size=range(5, 6),
            burst_spread=0.5,
        )
        offsets = [
            j.submit_offset for j in self.gen(spec).generate_workload(50)
        ]
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        # Most gaps are tiny intra-burst spacings; the rare long ones
        # separate bursts.
        assert sum(1 for g in gaps if g < 5.0) >= len(gaps) // 2
        assert max(gaps) > 20.0

    def test_bursty_long_run_rate_matches_mean(self):
        # The inter-burst gap budget subtracts the expected intra-burst
        # spacing, so the realized rate tracks mean_interarrival.
        spec = ArrivalSpec(
            kind="bursty",
            mean_interarrival=10.0,
            burst_size=range(3, 9),
            burst_spread=2.0,
        )
        jobs = self.gen(spec).generate_workload(2000)
        realized = jobs[-1].submit_offset / (len(jobs) - 1)
        assert realized == pytest.approx(10.0, rel=0.15)

    def test_poisson_matches_legacy_constructor(self):
        # mean_interarrival without an ArrivalSpec must keep drawing
        # the exact historical sequence.
        legacy = SwimGenerator(self.stream(), mean_interarrival=7.0)
        explicit = SwimGenerator(
            self.stream(),
            arrival=ArrivalSpec(kind="poisson", mean_interarrival=7.0),
        )
        a = [j.submit_offset for j in legacy.generate_workload(25)]
        b = [j.submit_offset for j in explicit.generate_workload(25)]
        assert a == b
