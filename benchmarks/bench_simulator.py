"""Micro-benchmarks of the simulator itself.

Not a paper figure: these track the engine's own performance (event
throughput, suspension round-trip cost, end-to-end microbenchmark
latency) so regressions in the substrate are visible.
"""

from repro.experiments.harness import TwoJobHarness
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.signals import Signal
from repro.osmodel.work import CpuWorkItem, WorkEngine, WorkPlan
from repro.sim.engine import Simulation
from repro.units import GB, MB


def bench_event_loop_throughput(benchmark):
    """Raw engine: schedule and fire 20k chained events."""

    def run():
        sim = Simulation()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    result = benchmark(run)
    assert result == 20_000


def bench_cancellation_heavy(benchmark):
    """The cancellation-heavy pattern: 50k schedules, 80% cancelled,
    ``pending_events`` polled throughout.

    Before the cancelled-event counter this was quadratic (every poll
    scanned the whole heap) and the dead handles lingered until popped;
    with the counter plus lazy compaction both the polls and the final
    drain are cheap.
    """

    def run():
        sim = Simulation()
        handles = []
        polled = 0
        for i in range(50_000):
            handles.append(sim.schedule(float(i % 100) + 1.0, lambda: None))
            if i % 5:
                handles[-1].cancel()
            if i % 50 == 0:
                polled += sim.pending_events
        sim.run()
        assert sim.pending_events == 0
        return sim.events_fired

    result = benchmark(run)
    assert result == 10_000


def bench_suspend_resume_round_trip(benchmark):
    """1000 suspend/resume cycles against one CPU-bound process."""

    def run():
        kernel = NodeKernel(
            Simulation(seed=1),
            NodeConfig(hostname="bench", os_reserved_bytes=0),
        )
        proc = kernel.spawn("p")
        WorkEngine(proc, WorkPlan([CpuWorkItem(1e9, weight=1.0)]))
        proc.engine.start()
        for i in range(1000):
            kernel.signal(proc.pid, Signal.SIGSTOP)
            kernel.signal(proc.pid, Signal.SIGCONT)
        kernel.sim.run(until=kernel.sim.now + 1.0)
        return proc.stopped_seconds

    benchmark(run)


def bench_two_job_simulation(benchmark):
    """One full light-weight microbenchmark run (the unit of Figure 2)."""

    def run():
        harness = TwoJobHarness("suspend", 0.5)
        return harness.run_once(seed=99)

    result = benchmark(run)
    assert result.sojourn_th > 0


def bench_heavy_two_job_simulation(benchmark):
    """One worst-case run with 2 GB footprints (the unit of Figure 3)."""

    def run():
        harness = TwoJobHarness("suspend", 0.5, heavy=True)
        return harness.run_once(seed=99)

    result = benchmark(run)
    assert result.tl_paged_bytes > 0


def bench_resource_contention_churn(benchmark):
    """The virtual-time core's headline pattern: one shared resource,
    hundreds of concurrent claims, constant pause/resume/speed churn.

    The eager model cancelled and re-armed every claim's completion
    event on every state change (O(active claims) each); the
    virtual-time model does O(log n) heap work and moves one armed
    event.  Event counters are asserted so the bench doubles as a
    regression tripwire for the O(1)-engine-traffic contract.
    """

    def run():
        sim = Simulation()
        from repro.osmodel.resources import RateResource

        res = RateResource(sim, capacity=100.0)
        claims = [res.submit(1e8 + i, lambda: None) for i in range(400)]
        for cycle in range(1000):
            victim = claims[(cycle * 37) % len(claims)]
            res.pause(victim)
            res.activate(victim)
            if cycle % 50 == 0:
                res.set_speed_factor(0.5 if cycle % 100 == 0 else 1.0)
        # One armed event serves all 400 claims.
        assert sim.pending_events == 1
        return sim.events_scheduled + sim.reschedules

    engine_ops = benchmark(run)
    # ~4 engine ops per churn cycle, NOT ~400: the O(active claims)
    # blow-up would push this into the hundreds of thousands.
    assert engine_ops < 10_000


def bench_hot_class_allocation(benchmark):
    """Allocation throughput of the __slots__-bearing hot classes.

    Scale replays construct one WorkPlan (4-6 WorkItems), one Claim
    and a handful of EventHandles per task attempt; this bench tracks
    the construction cost (and, implicitly, the footprint win) of the
    slotted versions.
    """
    from repro.osmodel.work import (
        CpuWorkItem,
        DiskWriteItem,
        MemAllocItem,
        MemTouchItem,
        SleepItem,
        WorkPlan,
    )
    from repro.units import MB

    def run():
        plans = [
            WorkPlan(
                [
                    SleepItem(1.0, label="jvm-start"),
                    MemAllocItem(64 * MB),
                    CpuWorkItem(30.0, weight=1.0, reads_bytes=64 * MB),
                    MemTouchItem(),
                    DiskWriteItem(16 * MB),
                ]
            )
            for _ in range(2_000)
        ]
        return len(plans)

    result = benchmark(run)
    assert result == 2_000
