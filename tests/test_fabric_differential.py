"""Fabric rate-coupling differential suite.

A :class:`~repro.netmodel.link.Link` keeps its member flows plus one
cached fair share, and meters utilization only when
``NetConfig.meter_utilization`` is on.  The old coupling (kept
verbatim in :mod:`tests.legacy_fabric`) stored a copy of every
member's rate on every link of its path, recomputed the fair share
per read and always metered.  Seeded random operation sequences --
start, pause, resume, cancel, run for a while, run to completion --
on a two-rack topology must give, after every operation:

* bit-equal flow rates, states and completion instants;
* the same engine event counts;
* metered, bit-equal ``bytes_carried`` and ``mean_utilization`` on
  every link.

And the meter must be observation-silent: metered and unmetered runs
agree on everything but the meter itself.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdfs.topology import RackTopology
from repro.netmodel import Fabric, FlowState, NetConfig
from repro.netmodel.link import Link
from repro.sim.engine import Simulation
from tests.legacy_fabric import LegacyFabric
from tests.test_batched_differential import (
    MEMSCALE_GOLDEN,
    assert_golden,
    run_memscale,
)

HOSTS = [f"r{rack}h{i}" for rack in range(2) for i in range(3)]

#: small capacities so NICs, uplinks and the core all bottleneck
CONFIG = dict(
    nic_bandwidth=100.0,
    uplink_bandwidth=150.0,
    core_bandwidth=250.0,
    loopback_bandwidth=1000.0,
)

OP = st.one_of(
    st.tuples(
        st.just("start"),
        st.integers(0, len(HOSTS) - 1),
        st.integers(0, len(HOSTS) - 1),
        st.integers(1, 400),
    ),
    st.tuples(st.sampled_from(["pause", "resume", "cancel"]),
              st.integers(0, 63)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
    st.tuples(st.just("drain")),
)
OPS = st.lists(OP, min_size=1, max_size=40)


class Harness:
    """One fabric on its own engine, driven by the op script."""

    def __init__(self, fabric_cls, metered):
        topo = RackTopology()
        for host in HOSTS:
            topo.add_host(host, f"/rack{host[1]}")
        self.sim = Simulation(seed=1)
        self.fabric = fabric_cls(
            self.sim, topo, NetConfig(**CONFIG, meter_utilization=metered)
        )
        self.flows = []
        self.completions = []

    def apply(self, op):
        kind = op[0]
        fabric = self.fabric
        if kind == "start":
            _, src, dst, nbytes = op
            self.flows.append(fabric.start_flow(
                HOSTS[src], HOSTS[dst], nbytes,
                lambda flow: self.completions.append(
                    (flow.flow_id, self.sim.now)
                ),
            ))
        elif kind == "run":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "drain":
            self.sim.run()
        elif self.flows:
            flow = self.flows[op[1] % len(self.flows)]
            getattr(fabric, f"{kind}_flow")(flow)

    def state(self):
        """Everything but the meter, exactly."""
        sim = self.sim
        return (
            sim.now,
            sim.events_fired,
            sim.events_scheduled,
            sim.reschedules,
            [(f.flow_id, f.state, f.rate, f.finished_at)
             for f in self.flows],
            list(self.completions),
            [sorted(link._flows) for link in self.links()],
        )

    def links(self):
        fabric = self.fabric
        return (
            [fabric.nic(host) for host in HOSTS]
            + fabric.uplinks()
            + [fabric.core]
        )

    def meter(self):
        now = self.sim.now
        return [(link.bytes_carried, link.mean_utilization(now))
                for link in self.links()]


def replay(ops, metered, check):
    """Drive the current fabric and the legacy oracle through ``ops``,
    calling ``check(new, legacy)`` after each."""
    new = Harness(Fabric, metered)
    legacy = Harness(LegacyFabric, True)
    for op in ops:
        new.apply(op)
        legacy.apply(op)
        check(new, legacy)
        # _recouple re-rates link members unguarded: they must be
        # exactly the active flows that cross a link.
        members = {flow for link in new.links()
                   for flow in link._flows.values()}
        assert members == {f for f in new.flows
                           if f.state is FlowState.ACTIVE and f.path}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_metered_fabric_matches_legacy_oracle(ops):
    def check(new, legacy):
        assert new.state() == legacy.state()
        assert new.meter() == legacy.meter()

    replay(ops, True, check)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_unmetered_fabric_matches_legacy_oracle(ops):
    def check(new, legacy):
        assert new.state() == legacy.state()

    replay(ops, False, check)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_metering_is_observation_silent(ops):
    metered = Harness(Fabric, True)
    unmetered = Harness(Fabric, False)
    for op in ops:
        metered.apply(op)
        unmetered.apply(op)
        assert metered.state() == unmetered.state()


def test_unmetered_memscale_cell_never_touches_the_meter(monkeypatch):
    """The suspend-gated memscale golden cell routes its shuffles over
    an unmetered fabric: no link ever updates its utilization ledger,
    and the pinned digest holds."""

    def refuse(self, now):
        raise AssertionError(f"{self.name}: unmetered link was metered")

    monkeypatch.setattr(Link, "_accumulate", refuse)
    assert_golden(
        run_memscale("suspend-gated"),
        MEMSCALE_GOLDEN["suspend-gated"],
        "memscale/suspend-gated (meter refused)",
    )
