"""Golden-trace determinism: same seed => identical runs.

Every experiment cell in this repository must be a pure function of
its arguments: two executions with the same seed produce the same
:class:`~repro.sim.trace.TraceLog` digest and the same metric values,
in the same process, across processes, and regardless of how many
workers the grid is sharded over.  These tests are the contract the
parallel runner's bit-identity guarantee rests on.
"""

import pytest

from repro.experiments.faults_study import _run_once as faults_cell
from repro.experiments.harness import TwoJobHarness, measure_two_job
from repro.experiments.runner import SweepOptions
from repro.experiments.scale_study import _run_once as scale_cell
from repro.experiments.scale_study import run_scale_study
from tests.conftest import quick_cluster
from repro.workloads.jobspec import JobSpec, TaskSpec
from repro.units import MB


def tracing_run(seed: int):
    """A small traced cluster run used for digest comparisons.

    Jitter is on so the run actually consumes seeded randomness --
    with zero jitter every seed would (correctly) trace identically.
    """
    cluster = quick_cluster(num_nodes=2, seed=seed, task_time_jitter=0.05)
    cluster.submit_job(
        JobSpec(
            name="d",
            tasks=[
                TaskSpec(input_bytes=35 * MB, parse_rate=7 * MB, name=f"t{i}")
                for i in range(3)
            ],
        )
    )
    cluster.run_until_jobs_complete(timeout=3600.0)
    return cluster


class TestTraceDigest:
    def test_same_seed_same_digest(self):
        a = tracing_run(11)
        b = tracing_run(11)
        assert len(a.sim.trace_log) > 50
        assert a.sim.trace_log.digest() == b.sim.trace_log.digest()

    def test_different_seed_different_digest(self):
        assert (
            tracing_run(11).sim.trace_log.digest()
            != tracing_run(12).sim.trace_log.digest()
        )

    def test_digest_sees_field_values(self):
        a = tracing_run(11).sim.trace_log
        digest_before = a.digest()
        a.record(0.0, "extra", detail=1)
        assert a.digest() != digest_before


class _CountingObserver:
    """A drive-loop observer due at every step that only counts."""

    every = 0.0

    def __init__(self):
        self.calls = 0

    def __call__(self, cluster):
        self.calls += 1


class TestFig2Determinism:
    def test_harness_cell_repeatable(self):
        first = TwoJobHarness("suspend", 0.5, keep_traces=True).run_once(77)
        second = TwoJobHarness("suspend", 0.5, keep_traces=True).run_once(77)
        assert first.sojourn_th == second.sojourn_th
        assert first.makespan == second.makespan
        assert first.tl_paged_bytes == second.tl_paged_bytes
        assert (
            first.trace_cluster.sim.trace_log.digest()
            == second.trace_cluster.sim.trace_log.digest()
        )

    def test_observer_between_every_step_is_silent(self):
        # An every=0 observer runs between every pair of engine steps;
        # observation must not move the cell's trace or its metrics.
        harness = TwoJobHarness("suspend", 0.5, keep_traces=True)
        plain = harness.build_cluster(77)
        plain.run_until_jobs_complete(timeout=14_400.0)
        observed = harness.build_cluster(77)
        observer = _CountingObserver()
        observed.run_until_jobs_complete(timeout=14_400.0, observer=observer)
        assert observer.calls > 0
        assert (
            observed.sim.trace_log.digest() == plain.sim.trace_log.digest()
        )
        assert measure_two_job(observed, keep_trace=False) == (
            measure_two_job(plain, keep_trace=False)
        )

    @pytest.mark.integration
    def test_flat_grid_equals_per_primitive_sweeps(self):
        # The one-pool grid path must reproduce per-seed serial runs.
        from repro.experiments.harness import sweep_grid

        coords = [(p, r) for p in ("wait", "kill") for r in (0.3, 0.7)]
        flat = sweep_grid(
            [dict(primitive=p, progress_at_launch=r) for p, r in coords],
            runs=2, base_seed=1000, sweep=SweepOptions(workers=2),
        )
        for (primitive, r), point in zip(coords, flat):
            serial = [
                TwoJobHarness(primitive, r).run_once(seed)
                for seed in (1000, 1001)
            ]
            assert (point.primitive, point.progress_at_launch) == (
                primitive, r
            )
            assert point.runs == serial
            assert point.sojourn_th.mean == (
                sum(c.sojourn_th for c in serial) / 2
            )
            assert point.makespan.mean == sum(c.makespan for c in serial) / 2


class TestFaultsDeterminism:
    def test_cell_repeatable(self):
        first = faults_cell("node-crash", "kill", 4242)
        second = faults_cell("node-crash", "kill", 4242)
        assert first == second

    @pytest.mark.integration
    def test_serial_equals_parallel(self):
        from repro.experiments.faults_study import run_faults_study

        kwargs = dict(runs=1, scenarios=["transient-failure"],
                      primitives=["kill", "suspend"])
        serial = run_faults_study(sweep=SweepOptions(workers=1), **kwargs)
        parallel = run_faults_study(sweep=SweepOptions(workers=2), **kwargs)
        assert serial.extras["metrics"] == parallel.extras["metrics"]
        assert serial.render() == parallel.render()


class TestScaleDeterminism:
    CELL = dict(scenario="baseline", primitive_name="kill",
                trackers=5, num_jobs=6, seed=31337)

    def test_cell_repeatable(self):
        assert scale_cell(**self.CELL) == scale_cell(**self.CELL)

    def test_gated_cell_repeatable(self):
        # The admission gate must not introduce nondeterminism.
        from repro.preemption.admission import AdmissionConfig

        cell = dict(self.CELL, primitive_name="suspend",
                    admission=AdmissionConfig(reserve_bytes=256 * MB))
        assert scale_cell(**cell) == scale_cell(**cell)

    @pytest.mark.integration
    def test_serial_equals_parallel_byte_identical(self):
        kwargs = dict(
            runs=1,
            cluster_sizes=[5],
            scenarios=["baseline", "burst"],
            primitives=["wait", "suspend"],
            num_jobs=6,
        )
        serial = run_scale_study(sweep=SweepOptions(workers=1), **kwargs)
        parallel = run_scale_study(sweep=SweepOptions(workers=2), **kwargs)
        assert serial.extras["digest"] == parallel.extras["digest"]
        assert serial.render().encode() == parallel.render().encode()


class TestScale2000GoldenTrace:
    """The 2000-tracker cell (steady mix, phase-locked heartbeats)
    obeys the same golden-trace contract as every small cell:
    repeatable digests, byte-identical sharding over 4 workers, and
    checkpoint/resume replay identity -- at the scale where the
    standing job index answers thousands of heartbeats between
    membership changes."""

    @staticmethod
    def _cell_kwargs(seed_salt):
        from repro.experiments.runner import derive_seed

        return dict(
            scenario="steady", primitive_name="suspend", trackers=2000,
            num_jobs=30,
            seed=derive_seed(9000, "scale", "steady", 2000, "suspend",
                             seed_salt),
            trace=True, heartbeat_phases=4,
        )

    @pytest.mark.slow
    def test_serial_equals_workers4_byte_identical(self):
        from repro.experiments.runner import Cell, run_cells

        cells = [
            Cell.make("repro.experiments.scale_study", "_run_once",
                      **self._cell_kwargs(salt))
            for salt in range(4)
        ]
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=4)
        assert serial == parallel
        digests = [r["trace_digest"] for r in serial]
        # Distinct seeds genuinely consumed randomness: all differ.
        assert len(set(digests)) == len(digests)

    @pytest.mark.slow
    def test_checkpoint_resume_identity(self, tmp_path):
        from repro.checkpoint.core import load, restore
        from repro.experiments import scale_study
        from repro.experiments.drive import finish_replay

        kwargs = self._cell_kwargs(0)
        cluster = scale_study._build_run(
            kwargs["scenario"], kwargs["primitive_name"],
            kwargs["trackers"], kwargs["num_jobs"], kwargs["seed"],
            trace=True, heartbeat_phases=kwargs["heartbeat_phases"],
        )
        meta = {
            "kind": "scale", "scenario": kwargs["scenario"],
            "primitive_name": kwargs["primitive_name"],
            "trackers": kwargs["trackers"], "num_jobs": kwargs["num_jobs"],
            "seed": kwargs["seed"], "trace": True,
        }
        path = str(tmp_path / "scale2000.ck")
        cluster.sim.snapshot_at(120.0, path, root=cluster, meta=meta)
        unbroken = finish_replay(cluster, meta)
        checkpoint = load(path)
        resumed = finish_replay(
            restore(checkpoint), dict(checkpoint.meta)
        )
        assert resumed == unbroken


class TestMemscaleDeterminism:
    """The memscale grid shards byte-identically like scale/shuffle."""

    CELL = dict(mode="suspend-gated", trackers=6, num_jobs=8, seed=41001)

    def test_cell_repeatable(self):
        from repro.experiments.memscale_study import _run_once as memscale_cell

        assert memscale_cell(**self.CELL) == memscale_cell(**self.CELL)

    @pytest.mark.integration
    def test_serial_equals_parallel_byte_identical(self):
        from repro.experiments.memscale_study import run_memscale_study

        kwargs = dict(
            runs=1,
            cluster_sizes=[6],
            modes=["kill", "suspend-gated", "suspend-ungated"],
            num_jobs=8,
        )
        serial = run_memscale_study(sweep=SweepOptions(workers=1), **kwargs)
        parallel = run_memscale_study(sweep=SweepOptions(workers=4), **kwargs)
        assert serial.extras["digest"] == parallel.extras["digest"]
        assert serial.render().encode() == parallel.render().encode()
