"""Node kernel facade: spawn/reap, allocation charging, file I/O."""

import pytest

from repro.errors import ConfigurationError, NoSuchProcessError
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.signals import Signal
from repro.sim.engine import Simulation
from repro.units import GB, MB


@pytest.fixture
def kernel():
    return NodeKernel(
        Simulation(seed=2),
        NodeConfig(
            ram_bytes=1 * GB,
            os_reserved_bytes=128 * MB,
            page_cache_min_bytes=0,
            hostname="k",
        ),
    )


class TestProcessTable:
    def test_spawn_assigns_unique_pids(self, kernel):
        pids = {kernel.spawn(f"p{i}").pid for i in range(5)}
        assert len(pids) == 5

    def test_lookup_live_process(self, kernel):
        proc = kernel.spawn("p")
        assert kernel.process(proc.pid) is proc

    def test_lookup_unknown_pid_raises(self, kernel):
        with pytest.raises(NoSuchProcessError):
            kernel.process(99999)

    def test_live_processes_excludes_dead(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        kernel.signal(a.pid, Signal.SIGKILL)
        assert kernel.live_processes() == [b]

    def test_stopped_processes(self, kernel):
        a = kernel.spawn("a")
        kernel.spawn("b")
        kernel.signal(a.pid, Signal.SIGSTOP)
        assert kernel.stopped_processes() == [a]

    def test_stopped_table_matches_a_full_scan(self, kernel):
        def scanned():
            live = kernel.live_processes()
            stopped = [p for p in live if p.stopped]
            return stopped, sum(p.image.virtual for p in stopped)

        def check():
            stopped, total = scanned()
            assert kernel.stopped_processes() == stopped
            assert kernel.suspended_bytes() == total

        procs = [kernel.spawn(f"p{i}") for i in range(5)]
        for index, proc in enumerate(procs):
            kernel.charge_allocation(proc, (index + 1) * 40 * MB)
        check()
        # Stop out of pid order: the answer stays in pid order.
        for proc in (procs[3], procs[0], procs[2], procs[4]):
            kernel.signal(proc.pid, Signal.SIGSTOP)
            check()
        kernel.signal(procs[0].pid, Signal.SIGCONT)
        check()
        kernel.signal(procs[0].pid, Signal.SIGCONT)  # not stopped: no-op
        check()
        kernel.signal(procs[3].pid, Signal.SIGKILL)  # killed while stopped
        check()
        kernel.oom_kill(procs[2], why="test")  # OOM-killed while stopped
        check()
        kernel.signal(procs[1].pid, Signal.SIGSTOP)
        kernel.release_memory(procs[1], 16 * MB)  # images are read live
        check()
        assert kernel.stopped_processes() == [procs[1], procs[4]]
        assert kernel.suspended_bytes() == (
            procs[1].image.virtual + procs[4].image.virtual
        )

    def test_reaped_process_leaves_table(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        kernel.signal(a.pid, Signal.SIGKILL)
        assert a.pid not in kernel._processes
        assert list(kernel._processes.values()) == [b]

    def test_lookup_reaped_process_raises(self, kernel):
        proc = kernel.spawn("p")
        kernel.signal(proc.pid, Signal.SIGKILL)
        with pytest.raises(NoSuchProcessError):
            kernel.process(proc.pid)
        with pytest.raises(NoSuchProcessError):
            kernel.signal(proc.pid, Signal.SIGCONT)


class TestAllocationCharge:
    def test_touch_time_linear_in_bytes(self, kernel):
        proc = kernel.spawn("p")
        charge = kernel.charge_allocation(proc, 120 * MB)
        expected = 120 * MB / kernel.config.mem_touch_bw
        assert charge.touch_time == pytest.approx(expected)
        assert charge.total_time >= charge.touch_time

    def test_clean_allocation_has_no_touch_time(self, kernel):
        proc = kernel.spawn("p")
        charge = kernel.charge_allocation(proc, 64 * MB, dirty=False)
        assert charge.touch_time == 0.0
        assert proc.image.resident_clean == 64 * MB

    def test_release_memory(self, kernel):
        proc = kernel.spawn("p")
        kernel.charge_allocation(proc, 100 * MB)
        freed = kernel.release_memory(proc, 40 * MB)
        assert freed == 40 * MB
        assert proc.image.virtual == 60 * MB

    def test_memory_summary_consistent(self, kernel):
        proc = kernel.spawn("p")
        kernel.charge_allocation(proc, 100 * MB)
        kernel.vmm.cache_file_read(50 * MB)
        summary = kernel.memory_summary()
        assert summary["process_resident"] == 100 * MB
        assert summary["page_cache"] == 50 * MB
        assert (
            summary["free_ram"]
            == summary["usable_ram"] - 100 * MB - 50 * MB
        )


class TestFileIO:
    def test_read_file_populates_cache(self, kernel):
        done = []
        kernel.read_file(100 * MB, lambda: done.append(kernel.sim.now))
        kernel.sim.run()
        assert done
        assert kernel.vmm.page_cache.size == 100 * MB
        assert kernel.disk.bytes_read == 100 * MB

    def test_write_file_timing(self, kernel):
        done = []
        kernel.write_file(90 * MB, lambda: done.append(kernel.sim.now))
        kernel.sim.run()
        assert done == [pytest.approx(90 * MB / kernel.config.disk_write_bw)]


class TestInvariants:
    def test_check_invariants_after_churn(self, kernel):
        procs = [kernel.spawn(f"p{i}") for i in range(4)]
        for proc in procs:
            kernel.charge_allocation(proc, 150 * MB)
        kernel.signal(procs[0].pid, Signal.SIGSTOP)
        kernel.charge_allocation(procs[1], 200 * MB)
        kernel.signal(procs[2].pid, Signal.SIGKILL)
        kernel.check_invariants()

    def test_check_invariants_with_stopped_processes_in_swap(self, kernel):
        stopped = [kernel.spawn(f"s{i}") for i in range(2)]
        for proc in stopped:
            kernel.charge_allocation(proc, 300 * MB)
            kernel.signal(proc.pid, Signal.SIGSTOP)
        doomed = kernel.spawn("doomed")
        kernel.charge_allocation(doomed, 100 * MB)
        kernel.signal(doomed.pid, Signal.SIGKILL)
        hungry = kernel.spawn("hungry")
        kernel.charge_allocation(hungry, 500 * MB)
        assert stopped[0].image.swapped > 0
        assert kernel.vmm.swap.used == sum(p.image.swapped for p in stopped)
        assert list(kernel._processes.values()) == stopped + [hungry]
        kernel.check_invariants()

    def test_node_config_validation(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(ram_bytes=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(os_reserved_bytes=5 * GB)
        with pytest.raises(ConfigurationError):
            NodeConfig(swappiness=150)
        with pytest.raises(ConfigurationError):
            NodeConfig(cores=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(direct_reclaim_fraction=1.5)

    def test_config_replace(self):
        config = NodeConfig()
        other = config.replace(hostname="x", cores=8)
        assert other.hostname == "x"
        assert other.cores == 8
        assert config.hostname != "x"
