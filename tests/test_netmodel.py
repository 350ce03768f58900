"""The network fabric: links, flows, coupled rates, transfers, fetch items."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hdfs.topology import Locality, RackTopology
from repro.netmodel import (
    Fabric,
    FlowState,
    NetConfig,
    NetworkFetchItem,
    TransferState,
)
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.resources import RateResource
from repro.osmodel.signals import Signal
from repro.osmodel.work import WorkEngine, WorkPlan
from repro.sim.engine import Simulation
from repro.units import MB


def two_rack_topology(hosts_per_rack=2):
    topo = RackTopology()
    for rack in range(2):
        for i in range(hosts_per_rack):
            topo.add_host(f"r{rack}h{i}", f"/rack{rack}")
    return topo


def make_fabric(config=None, hosts_per_rack=2, seed=1):
    sim = Simulation(seed=seed)
    topo = two_rack_topology(hosts_per_rack)
    return sim, Fabric(sim, topo, config or NetConfig())


class TestNetConfig:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetConfig(nic_bandwidth=0)

    def test_oversubscribed_uplink_math(self):
        cfg = NetConfig.oversubscribed(
            hosts_per_rack=5, oversubscription=2.5, nic_bandwidth=100.0
        )
        assert cfg.uplink_bandwidth == pytest.approx(200.0)
        assert cfg.core_bandwidth == pytest.approx(400.0)

    def test_oversubscribed_rejects_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            NetConfig.oversubscribed(hosts_per_rack=5, oversubscription=0)


class TestLineRateReduction:
    """Acceptance: an uncongested single flow IS the plain PS resource."""

    def test_single_flow_matches_plain_resource(self):
        nbytes = 384 * MB
        cfg = NetConfig(nic_bandwidth=float(100 * MB))
        sim, fabric = make_fabric(cfg)
        done = {}
        fabric.start_flow(
            "r0h0", "r1h0", nbytes, lambda f: done.setdefault("net", sim.now)
        )
        # The oracle: the same bytes as one claim on a plain PS
        # resource at NIC capacity.
        oracle_sim = Simulation(seed=1)
        oracle = RateResource(oracle_sim, capacity=float(100 * MB))
        oracle.submit(nbytes, lambda: done.setdefault("ps", oracle_sim.now))
        sim.run(until=1000)
        oracle_sim.run(until=1000)
        assert done["net"] == pytest.approx(done["ps"], abs=1e-9)
        assert done["net"] == pytest.approx(nbytes / float(100 * MB))

    def test_loopback_never_touches_links(self):
        sim, fabric = make_fabric()
        done = {}
        fabric.start_flow("r0h0", "r0h0", 100 * MB, lambda f: done.setdefault("t", sim.now))
        assert fabric.nic("r0h0").flow_count == 0
        sim.run(until=1000)
        assert done["t"] == pytest.approx(
            100 * MB / fabric.config.loopback_bandwidth
        )


class TestBottleneckSharing:
    def test_uplink_bottleneck_shared_fairly(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=100.0, core_bandwidth=1000.0
        )
        sim, fabric = make_fabric(cfg)
        done = {}
        # Two cross-rack flows share the rack0 uplink and the r1h0 NIC:
        # 50 each; both transfer 100 bytes -> both complete at t=2.
        fabric.start_flow("r0h0", "r1h0", 100, lambda f: done.setdefault("a", sim.now))
        fabric.start_flow("r0h1", "r1h0", 100, lambda f: done.setdefault("b", sim.now))
        sim.run(until=100)
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_unused_share_not_redistributed(self):
        # Flow A is bottlenecked at its source NIC (10); on the shared
        # uplink (100, two flows -> fair share 50) it uses only 10, but
        # B still gets its 50 -- bottleneck share, no progressive fill.
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=100.0, core_bandwidth=1000.0
        )
        sim, fabric = make_fabric(cfg)
        slow_nic = fabric.nic("r0h0")
        slow_nic.capacity = 10.0
        done = {}
        a = fabric.start_flow("r0h0", "r1h0", 100, lambda f: done.setdefault("a", sim.now))
        b = fabric.start_flow("r0h1", "r1h1", 100, lambda f: done.setdefault("b", sim.now))
        assert a.rate == pytest.approx(10.0)
        assert b.rate == pytest.approx(50.0)
        sim.run(until=100)
        # B speeds up to 100 (NIC bound) once A's uplink share frees?
        # No: A finishes *after* B, so B ran at 50 until its own end.
        assert done["b"] == pytest.approx(2.0)
        assert done["a"] == pytest.approx(10.0)

    def test_departure_speeds_up_survivors(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=100.0, core_bandwidth=1000.0
        )
        sim, fabric = make_fabric(cfg)
        done = {}
        # Same path: share the uplink at 50/50; the short flow leaves
        # at t=1, the long one finishes its remaining 150 at 100.
        fabric.start_flow("r0h0", "r1h0", 50, lambda f: done.setdefault("short", sim.now))
        fabric.start_flow("r0h1", "r1h1", 200, lambda f: done.setdefault("long", sim.now))
        sim.run(until=100)
        assert done["short"] == pytest.approx(1.0)
        assert done["long"] == pytest.approx(1.0 + 150 / 100.0)

    def test_same_rack_skips_uplink_and_core(self):
        sim, fabric = make_fabric()
        path = fabric.route("r0h0", "r0h1")
        assert [link.name for link in path] == ["nic:r0h0", "nic:r0h1"]
        cross = fabric.route("r0h0", "r1h1")
        assert [link.name for link in cross] == [
            "nic:r0h0", "uplink:/rack0", "core", "uplink:/rack1", "nic:r1h1",
        ]


class TestFlowLifecycle:
    def test_pause_preserves_bytes_and_frees_capacity(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=100.0, core_bandwidth=1000.0
        )
        sim, fabric = make_fabric(cfg)
        done = {}
        a = fabric.start_flow("r0h0", "r1h0", 1000, lambda f: done.setdefault("a", sim.now))
        b = fabric.start_flow("r0h1", "r1h1", 1000, lambda f: done.setdefault("b", sim.now))
        sim.run(until=2.0)
        assert a.transferred == pytest.approx(100.0)
        fabric.pause_flow(a)
        assert a.state is FlowState.PAUSED
        assert b.rate == pytest.approx(100.0)  # uplink freed
        sim.run(until=4.0)
        assert a.transferred == pytest.approx(100.0)  # frozen exactly
        fabric.resume_flow(a)
        sim.run(until=1000)
        assert done["a"] > done["b"]
        assert a.transferred == pytest.approx(1000.0)

    def test_cancel_counts_discarded_bytes(self):
        sim, fabric = make_fabric(
            NetConfig(nic_bandwidth=100.0, uplink_bandwidth=100.0,
                      core_bandwidth=1000.0)
        )
        flow = fabric.start_flow("r0h0", "r1h0", 1000, lambda f: None)
        sim.run(until=3.0)
        fabric.cancel_flow(flow)
        assert flow.state is FlowState.CANCELLED
        assert fabric.cancelled_bytes == pytest.approx(300.0)
        # Idempotent.
        fabric.cancel_flow(flow)
        assert fabric.cancelled_bytes == pytest.approx(300.0)

    def test_when_transferred_milestone_exact(self):
        sim, fabric = make_fabric(
            NetConfig(nic_bandwidth=100.0, uplink_bandwidth=100.0,
                      core_bandwidth=1000.0)
        )
        hits = []
        flow = fabric.start_flow("r0h0", "r1h0", 1000, lambda f: None)
        flow.when_transferred(250, lambda: hits.append(sim.now))
        sim.run(until=1000)
        assert hits == [pytest.approx(2.5)]

    def test_negative_flow_size_rejected(self):
        sim, fabric = make_fabric()
        with pytest.raises(SimulationError):
            fabric.start_flow("r0h0", "r1h0", -1, lambda f: None)


class TestUtilization:
    def test_mean_utilization_simple(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=100.0, core_bandwidth=1000.0,
            meter_utilization=True,
        )
        sim, fabric = make_fabric(cfg)
        fabric.start_flow("r0h0", "r1h0", 100, lambda f: None)
        sim.run(until=2.0)
        # 100 bytes over a 100 B/s uplink in 2 s of wall -> 50%.
        uplink = fabric.uplink("/rack0")
        assert uplink.mean_utilization(sim.now) == pytest.approx(0.5)

    def test_unmetered_utilization_raises(self):
        sim, fabric = make_fabric()
        fabric.start_flow("r0h0", "r1h0", 100, lambda f: None)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            fabric.uplink("/rack0").mean_utilization(sim.now)
        with pytest.raises(SimulationError):
            fabric.mean_uplink_utilization()

    def test_offrack_flow_counter(self):
        sim, fabric = make_fabric()
        fabric.start_flow("r0h0", "r0h1", 10, lambda f: None)
        fabric.start_flow("r0h0", "r1h1", 10, lambda f: None)
        assert fabric.offrack_flows == 1


class TestTransferManager:
    def test_per_host_cap_and_fifo(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=1000.0,
            core_bandwidth=1000.0, max_flows_per_host=2,
        )
        sim, fabric = make_fabric(cfg, hosts_per_rack=4)
        manager = fabric.transfers
        order = []
        transfers = [
            manager.fetch(f"r0h{i}", "r1h0", 100, lambda t: order.append(t.label),
                          label=f"t{i}")
            for i in range(4)
        ]
        assert manager.active_count("r1h0") == 2
        assert manager.queued_count("r1h0") == 2
        assert transfers[2].state is TransferState.QUEUED
        sim.run(until=1000)
        assert manager.active_count("r1h0") == 0
        # FIFO: the first two (concurrent, same rate) finish before the
        # last two.
        assert set(order[:2]) == {"t0", "t1"}
        assert set(order[2:]) == {"t2", "t3"}

    def test_pause_releases_slot_to_queue(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=1000.0,
            core_bandwidth=1000.0, max_flows_per_host=1,
        )
        sim, fabric = make_fabric(cfg, hosts_per_rack=3)
        manager = fabric.transfers
        t1 = manager.fetch("r0h0", "r1h0", 1000, lambda t: None, label="t1")
        t2 = manager.fetch("r0h1", "r1h0", 1000, lambda t: None, label="t2")
        sim.run(until=1.0)
        assert t2.state is TransferState.QUEUED
        manager.pause(t1)
        assert t2.state is TransferState.ACTIVE
        sim.run(until=2.0)
        manager.resume(t1)
        assert t1.state is TransferState.QUEUED  # waits behind t2
        manager.pause(t2)
        assert t1.state is TransferState.ACTIVE
        assert t1.transferred == pytest.approx(100.0)  # kept its bytes

    def test_cancel_queued_never_starts(self):
        cfg = NetConfig(
            nic_bandwidth=100.0, uplink_bandwidth=1000.0,
            core_bandwidth=1000.0, max_flows_per_host=1,
        )
        sim, fabric = make_fabric(cfg, hosts_per_rack=3)
        manager = fabric.transfers
        manager.fetch("r0h0", "r1h0", 100, lambda t: None, label="t1")
        t2 = manager.fetch("r0h1", "r1h0", 100, lambda t: None, label="t2")
        manager.cancel(t2)
        sim.run(until=1000)
        assert t2.state is TransferState.CANCELLED
        assert t2.flow is None
        assert fabric.flows_started == 1


class TestDeterminism:
    def test_identical_runs_identical_completions(self):
        def run():
            sim, fabric = make_fabric(hosts_per_rack=3, seed=9)
            log = []
            for i in range(9):
                src = f"r{i % 2}h{i % 3}"
                dst = f"r{(i + 1) % 2}h{(i * 2) % 3}"
                fabric.transfers.fetch(
                    src, dst, 37 * MB + i, lambda t: log.append((sim.now, t.label)),
                    label=f"f{i}",
                )
            sim.run(until=10_000)
            return log

        assert run() == run()


class TestNetworkFetchItem:
    """The fetch item inside a real kernel + work engine."""

    def make_engine(self, sources, fabric=None, host="r0h0"):
        if fabric is None:
            sim, fabric = make_fabric(
                NetConfig(nic_bandwidth=float(100 * MB),
                          uplink_bandwidth=float(100 * MB),
                          core_bandwidth=float(1000 * MB))
            )
        else:
            sim = fabric.sim
        kernel = NodeKernel(sim, NodeConfig(hostname=host))
        kernel.fabric = fabric
        proc = kernel.spawn("fetcher")
        proc.dispositions.install(Signal.SIGTSTP, lambda p: None)
        item = NetworkFetchItem(sources, weight=1.0)
        engine = WorkEngine(proc, WorkPlan([item]))
        return sim, kernel, proc, engine, item

    def test_fetches_all_sources_and_finishes(self):
        sim, kernel, proc, engine, item = self.make_engine(
            [("r0h1", 50 * MB), ("r1h0", 50 * MB)]
        )
        engine.start()
        sim.run(until=10_000)
        assert engine.completed
        assert item.fetched_bytes() == 100 * MB
        assert item.fraction_done(engine) == 1.0

    def test_suspend_pauses_flows_and_resume_continues(self):
        sim, kernel, proc, engine, item = self.make_engine(
            [("r1h0", 200 * MB)]
        )
        engine.start()
        sim.run(until=0.5)
        before = item.fetched_bytes()
        assert before > 0
        kernel.signal(proc.pid, Signal.SIGTSTP)
        sim.run(until=1.0)
        frozen = item.fetched_bytes()
        sim.run(until=5.0)
        assert item.fetched_bytes() == frozen  # no progress while stopped
        assert kernel.fabric.active_flows == 0
        kernel.signal(proc.pid, Signal.SIGCONT)
        sim.run(until=10_000)
        assert engine.completed
        assert item.discarded_network_bytes == 0

    def test_kill_discards_partial_traffic(self):
        sim, kernel, proc, engine, item = self.make_engine(
            [("r1h0", 200 * MB)]
        )
        engine.start()
        sim.run(until=0.5)
        kernel.signal(proc.pid, Signal.SIGKILL)
        sim.run(until=2.0)
        assert not proc.alive
        assert item.discarded_network_bytes > 0
        assert item.discarded_network_bytes == pytest.approx(
            kernel.fabric.cancelled_bytes, rel=1e-9
        )

    def test_progress_crossing_single_source_exact(self):
        sim, kernel, proc, engine, item = self.make_engine(
            [("r1h0", 100 * MB)]
        )
        hits = []
        engine.start()
        engine.when_progress(0.5, lambda: hits.append(sim.now))
        sim.run(until=10_000)
        assert hits
        # 50 MB at 100 MB/s line rate = 0.5 s.
        assert hits[0] == pytest.approx(0.5, rel=1e-6)

    def test_pause_does_not_promote_queued_siblings(self):
        # Pausing the item releases active fetch slots; the manager's
        # pump must not spin up the same item's queued transfers into
        # phantom flows mid-pause.
        cfg = NetConfig(
            nic_bandwidth=float(100 * MB),
            uplink_bandwidth=float(100 * MB),
            core_bandwidth=float(1000 * MB),
            max_flows_per_host=2,
        )
        sim, fabric = make_fabric(cfg, hosts_per_rack=5)
        sources = [(f"r1h{i}", 50 * MB) for i in range(5)]
        sim2, kernel, proc, engine, item = self.make_engine(
            sources, fabric=fabric, host="r0h0"
        )
        engine.start()
        sim.run(until=0.2)
        started = fabric.flows_started
        assert started == 2
        kernel.signal(proc.pid, Signal.SIGTSTP)
        sim.run(until=1.0)
        assert fabric.flows_started == started
        kernel.signal(proc.pid, Signal.SIGCONT)
        sim.run(until=10_000)
        assert engine.completed

    def test_queued_transfer_keeps_partial_bytes_in_progress(self):
        # A transfer paused mid-flight and resumed behind a full queue
        # sits QUEUED with a partially-filled flow; its bytes must
        # still count toward progress and abort accounting.
        cfg = NetConfig(
            nic_bandwidth=float(100 * MB),
            uplink_bandwidth=float(100 * MB),
            core_bandwidth=float(1000 * MB),
            max_flows_per_host=1,
        )
        sim, fabric = make_fabric(cfg, hosts_per_rack=3)
        sim2, kernel, proc, engine, item = self.make_engine(
            [("r1h0", 100 * MB), ("r1h1", 100 * MB)],
            fabric=fabric,
            host="r0h0",
        )
        engine.start()
        sim.run(until=0.5)  # first transfer halfway
        first = item._transfers[0]
        fabric.transfers.pause(first)   # slot goes to the second
        fabric.transfers.resume(first)  # re-queued behind it
        assert first.state is TransferState.QUEUED
        assert first.transferred > 0
        fetched = item.fetched_bytes()
        assert fetched >= first.transferred
        kernel.signal(proc.pid, Signal.SIGKILL)
        sim.run(until=2.0)
        assert item.discarded_network_bytes >= int(first.transferred)

    def test_no_fabric_falls_back_to_instant(self):
        sim = Simulation(seed=3)
        kernel = NodeKernel(sim, NodeConfig(hostname="solo"))
        proc = kernel.spawn("fetcher")
        item = NetworkFetchItem([("elsewhere", 10 * MB)])
        engine = WorkEngine(proc, WorkPlan([item]))
        engine.start()
        sim.run(until=10)
        assert engine.completed


class TestRackTopologyEdges:
    """Satellite: topology corner cases the delay knob leans on."""

    def test_unknown_host_gets_default_rack(self):
        topo = RackTopology()
        assert topo.rack_of("ghost") == RackTopology.DEFAULT_RACK
        topo.add_host("known", "/rack1")
        assert topo.rack_of("ghost") == RackTopology.DEFAULT_RACK
        # Two unknown hosts share the default rack: rack-local.
        assert topo.locality("ghost-a", ["ghost-b"]) is Locality.RACK_LOCAL

    def test_add_host_without_rack_defaults(self):
        topo = RackTopology()
        topo.add_host("a")
        topo.add_host("b", "/rack9")
        assert topo.rack_of("a") == RackTopology.DEFAULT_RACK
        assert topo.hosts_on_rack(RackTopology.DEFAULT_RACK) == ["a"]

    def test_multi_rack_locality_ordering(self):
        topo = two_rack_topology()
        replicas = ["r0h0", "r1h0"]
        assert topo.locality("r0h0", replicas) is Locality.NODE_LOCAL
        assert topo.locality("r0h1", replicas) is Locality.RACK_LOCAL
        topo.add_host("r2h0", "/rack2")
        assert topo.locality("r2h0", replicas) is Locality.REMOTE
        # Empty replica set: nothing is local to nowhere.
        assert topo.locality("r0h0", []) is Locality.REMOTE

    def test_locality_comparisons_used_by_delay_knob(self):
        # The knob's acceptance test is `locality <= RACK_LOCAL`; pin
        # the total order so a reordering of the enum cannot silently
        # invert the policy.
        assert Locality.NODE_LOCAL < Locality.RACK_LOCAL < Locality.REMOTE
        assert Locality.NODE_LOCAL <= Locality.RACK_LOCAL
        assert not (Locality.REMOTE <= Locality.RACK_LOCAL)
        assert sorted(
            [Locality.REMOTE, Locality.NODE_LOCAL, Locality.RACK_LOCAL]
        ) == [Locality.NODE_LOCAL, Locality.RACK_LOCAL, Locality.REMOTE]
        assert min(Locality.REMOTE, Locality.RACK_LOCAL) is Locality.RACK_LOCAL
