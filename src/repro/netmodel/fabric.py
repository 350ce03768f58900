"""The fabric: topology-routed flows with coupled bottleneck shares.

Routing follows the classic two-tier pod:

* same host          -> empty path (loopback rate, no shared segment);
* same rack          -> ``[src NIC, dst NIC]``;
* different racks    -> ``[src NIC, src rack uplink, core,
  dst rack uplink, dst NIC]``.

Every membership change recomputes the rate of each flow crossing a
touched link as ``min(fair share over its path)`` -- *bottleneck
share*: a flow held back elsewhere does not speed up on its other
links, and the capacity it leaves behind is **not** redistributed to
its neighbours (no progressive filling).  That choice keeps one
update O(flows on touched links) with no fixed-point iteration, and
makes the rates a pure function of the link occupancy counts -- which
is what makes parallel replay determinism trivial to preserve.

Determinism rules (pinned by ``tests/test_netmodel.py``):

* flows are (re)visited in ``flow_id`` order -- ids are allocated by a
  fabric-global counter, never from container iteration;
* rates depend only on occupancy counts, so update *order* cannot
  change the values, only the engine-event sequence -- which the
  ordered visit fixes;
* every rate change settles the flow's pipe under the old rate first
  (the piecewise-constant contract of the virtual-time core).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.hdfs.topology import RackTopology
from repro.netmodel.config import NetConfig
from repro.netmodel.flow import Flow, FlowState
from repro.netmodel.link import Link
from repro.netmodel.transfer import TransferManager
from repro.sim.engine import Simulation


class Fabric:
    """Shared-bandwidth network connecting the topology's hosts."""

    def __init__(
        self,
        sim: Simulation,
        topology: RackTopology,
        config: Optional[NetConfig] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config or NetConfig()
        self.core = Link(
            "core", self.config.core_bandwidth, sim.now,
            self.config.meter_utilization,
        )
        self._nics: Dict[str, Link] = {}
        self._uplinks: Dict[str, Link] = {}
        for host in topology.hosts():
            self._ensure_host(host)
        self._flow_seq = 0
        #: live (active or paused) flows by id, insertion-ordered
        self._flows: Dict[int, Flow] = {}
        self.flows_started = 0
        self.flows_completed = 0
        self.offrack_flows = 0
        #: bytes of cancelled flows' partial progress (kill discards)
        self.cancelled_bytes = 0.0
        self.transfers = TransferManager(self, self.config.max_flows_per_host)

    # -- topology ----------------------------------------------------------

    def _ensure_host(self, host: str) -> None:
        if host in self._nics:
            return
        now = self.sim.now
        metered = self.config.meter_utilization
        self._nics[host] = Link(
            f"nic:{host}", self.config.nic_bandwidth, now, metered
        )
        rack = self.topology.rack_of(host)
        if rack not in self._uplinks:
            self._uplinks[rack] = Link(
                f"uplink:{rack}", self.config.uplink_bandwidth, now, metered
            )

    def nic(self, host: str) -> Link:
        """The (shared send/receive) NIC link of ``host``."""
        self._ensure_host(host)
        return self._nics[host]

    def uplink(self, rack: str) -> Link:
        """The uplink of ``rack``."""
        if rack not in self._uplinks:
            raise SimulationError(f"unknown rack {rack!r}")
        return self._uplinks[rack]

    def uplinks(self) -> List[Link]:
        """All rack uplinks, rack order."""
        return list(self._uplinks.values())

    def route(self, src: str, dst: str) -> List[Link]:
        """The link path of a ``src`` -> ``dst`` flow."""
        if src == dst:
            return []
        self._ensure_host(src)
        self._ensure_host(dst)
        src_rack = self.topology.rack_of(src)
        dst_rack = self.topology.rack_of(dst)
        if src_rack == dst_rack:
            return [self._nics[src], self._nics[dst]]
        return [
            self._nics[src],
            self._uplinks[src_rack],
            self.core,
            self._uplinks[dst_rack],
            self._nics[dst],
        ]

    # -- flow lifecycle -------------------------------------------------------

    def start_flow(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_done,
        label: str = "",
        owner=None,
    ) -> Flow:
        """Open a flow and start it at its bottleneck share."""
        if nbytes < 0:
            raise SimulationError("flow size may not be negative")
        self._flow_seq += 1
        path = self.route(src, dst)
        flow = Flow(
            self.sim,
            self._flow_seq,
            src,
            dst,
            nbytes,
            path,
            self._flow_done(on_done),
            label=label,
            owner=owner,
        )
        self._flows[flow.flow_id] = flow
        self.flows_started += 1
        if len(path) == 5:
            self.offrack_flows += 1
        flow._start(self._rate_of(flow))
        self._attach(flow)
        return flow

    def pause_flow(self, flow: Flow) -> None:
        """Stop serving ``flow``; its links' capacity is released and
        its delivered bytes are preserved (a suspended reducer's fetch
        rides its task's SIGTSTP through here)."""
        if flow.state is not FlowState.ACTIVE:
            return
        self._detach(flow)
        flow._pause()

    def resume_flow(self, flow: Flow) -> None:
        """Re-admit a paused flow at its current bottleneck share."""
        if flow.state is not FlowState.PAUSED:
            return
        flow._resume()
        flow._set_rate(self._rate_of(flow))
        self._attach(flow)

    def cancel_flow(self, flow: Flow) -> None:
        """Abort ``flow``; partial progress is discarded (and counted
        in :attr:`cancelled_bytes` -- the kill primitive's wasted
        network traffic)."""
        if flow.state in (FlowState.DONE, FlowState.CANCELLED):
            return
        if flow.state is FlowState.ACTIVE:
            self._detach(flow)
        self.cancelled_bytes += flow.transferred
        flow._cancel()
        self._flows.pop(flow.flow_id, None)

    def _flow_done(self, on_done):
        return functools.partial(self._finish_flow, on_done)

    def _finish_flow(self, on_done, flow: Flow) -> None:
        self._detach(flow)
        self._flows.pop(flow.flow_id, None)
        self.flows_completed += 1
        on_done(flow)

    # -- coupled rate updates ----------------------------------------------------

    def _rate_of(self, flow: Flow) -> float:
        if not flow.path:
            return self.config.loopback_bandwidth
        return min([link.share for link in flow.path])

    def _attach(self, flow: Flow) -> None:
        # A loopback flow crosses no shared segment: nothing to re-rate.
        if flow.path:
            for link in flow.path:
                link._add(flow)
            self._recouple(flow.path, added=flow)

    def _detach(self, flow: Flow) -> None:
        if flow.path:
            now = self.sim.now
            for link in flow.path:
                link._remove(flow, now)
            self._recouple(flow.path)

    def _recouple(
        self, touched: List[Link], added: Optional[Flow] = None
    ) -> None:
        """Reassign bottleneck shares to the flows a membership change
        can actually move: an attach of ``added``, or (``added`` is
        ``None``) a detach, over the ``touched`` links of its path.

        One attach/detach shifts each touched link's fair share in a
        known direction, which screens the candidates: an **attach**
        only lowers shares, so only flows whose current rate *exceeds*
        the new share (plus the newcomer itself) can change; a
        **detach** only raises them, so only flows that were
        bottlenecked *at* a touched link -- ``rate == capacity /
        (count + 1)``, an exact float because rates are pure functions
        of the occupancy counts -- can rise.  Screened-out flows would
        have recomputed to their current rate, so skipping them changes
        no rate, no event, and no utilization sample; it is what keeps
        a hot core link (hundreds of crossing flows) from turning every
        membership change into a full re-rate.  Link members are
        exactly the active flows, so every candidate is re-rated.
        """
        affected: Dict[int, Flow] = {}
        if added is not None:
            affected[added.flow_id] = added
            for link in touched:
                share = link.share
                for flow_id, flow in link._flows.items():
                    if flow.rate > share:
                        affected[flow_id] = flow
        else:
            for link in touched:
                prev_share = link.capacity / (len(link._flows) + 1)
                for flow_id, flow in link._flows.items():
                    if flow.rate == prev_share:
                        affected[flow_id] = flow
        metered = self.config.meter_utilization
        now = self.sim.now
        for flow_id in sorted(affected):
            flow = affected[flow_id]
            old = flow.rate
            rate = min([link.share for link in flow.path])
            flow._set_rate(rate)
            if metered:
                # Each link carried the newcomer at 0 until now.
                if flow is added:
                    old = 0.0
                if rate != old:
                    delta = rate - old
                    for link in flow.path:
                        link._meter(delta, now)

    # -- introspection -------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Flows currently being served."""
        return sum(
            1 for f in self._flows.values() if f.state is FlowState.ACTIVE
        )

    def mean_uplink_utilization(self) -> float:
        """Mean utilization over all rack uplinks, settled to now."""
        links = self.uplinks()
        if not links:
            return 0.0
        now = self.sim.now
        return sum(link.mean_utilization(now) for link in links) / len(links)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Fabric(hosts={len(self._nics)}, racks={len(self._uplinks)}, "
            f"flows={len(self._flows)})"
        )
