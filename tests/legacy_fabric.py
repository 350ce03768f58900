"""The pre-cache fabric rate coupling, kept verbatim as the oracle for
the old-vs-new differential suite (``test_fabric_differential``).

This :class:`LegacyLink` stores a copy of every member flow's rate,
recomputes its fair share on every read, and always integrates its
utilization into fixed-width time buckets; :meth:`LegacyFabric._recouple`
writes each re-rated flow's new rate into every link on its path and
also accepts a call with neither hint (the unscreened full visit).
The current :mod:`repro.netmodel.link` keeps member flows plus one
cached share and meters utilization only when
``NetConfig.meter_utilization`` asks, so the differential suite drives
both through the same operations and compares rates, completion
instants and, metered, the utilization floats bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.netmodel.fabric import Fabric
from repro.netmodel.flow import Flow, FlowState


class LegacyLink:
    """One shared network segment (NIC, rack uplink, core switch)."""

    __slots__ = (
        "name",
        "capacity",
        "_flows",
        "_rate_sum",
        "_last_at",
        "_created_at",
        "_bucket_width",
        "_buckets",
        "bytes_carried",
    )

    def __init__(
        self, name: str, capacity: float, now: float, bucket_width: float = 10.0
    ):
        if capacity <= 0:
            raise SimulationError(f"{name}: link capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        #: flow_id -> current rate; insertion-ordered for determinism
        self._flows: Dict[int, float] = {}
        #: sum of the current rates of all flows on this link
        self._rate_sum = 0.0
        self._last_at = now
        self._created_at = now
        self._bucket_width = bucket_width
        #: bucket index -> bytes carried during that bucket
        self._buckets: Dict[int, float] = {}
        self.bytes_carried = 0.0

    # -- fair sharing ------------------------------------------------------

    @property
    def flow_count(self) -> int:
        """Number of flows currently crossing this link."""
        return len(self._flows)

    def fair_share(self) -> float:
        """Bytes/second each crossing flow is entitled to."""
        n = len(self._flows)
        if n == 0:
            return self.capacity
        return self.capacity / n

    # -- membership (fabric-internal) --------------------------------------

    def _add(self, flow_id: int, now: float) -> None:
        self._accumulate(now)
        self._flows[flow_id] = 0.0

    def _remove(self, flow_id: int, now: float) -> None:
        self._accumulate(now)
        rate = self._flows.pop(flow_id, 0.0)
        self._rate_sum -= rate
        if not self._flows:
            self._rate_sum = 0.0  # kill residual float dust

    def _set_flow_rate(self, flow_id: int, rate: float, now: float) -> None:
        self._accumulate(now)
        self._rate_sum += rate - self._flows[flow_id]
        self._flows[flow_id] = rate

    # -- utilization accounting ----------------------------------------------

    def _accumulate(self, now: float) -> None:
        """Fold the piecewise-constant aggregate rate since the last
        change into the byte integral and its buckets."""
        elapsed = now - self._last_at
        if elapsed <= 0 or self._rate_sum <= 0:
            self._last_at = now
            return
        start, rate = self._last_at, self._rate_sum
        self.bytes_carried += rate * elapsed
        width = self._bucket_width
        first = int(start // width)
        last = int(now // width)
        for bucket in range(first, last + 1):
            lo = max(start, bucket * width)
            hi = min(now, (bucket + 1) * width)
            if hi > lo:
                self._buckets[bucket] = self._buckets.get(bucket, 0.0) + rate * (
                    hi - lo
                )
        self._last_at = now

    def mean_utilization(self, now: float) -> float:
        """Fraction of capacity used since construction, settled to now."""
        self._accumulate(now)
        elapsed = now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self.bytes_carried / (self.capacity * elapsed)

    def utilization_timeline(self, now: float) -> List[Tuple[float, float]]:
        """(bucket start time, utilization in [0, 1]) pairs, in order."""
        self._accumulate(now)
        width = self._bucket_width
        return [
            (bucket * width, self._buckets[bucket] / (self.capacity * width))
            for bucket in sorted(self._buckets)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LegacyLink(name={self.name!r}, flows={len(self._flows)})"


class LegacyFabric(Fabric):
    """:class:`~repro.netmodel.fabric.Fabric` on :class:`LegacyLink`
    segments with the old coupling; the flow lifecycle is inherited."""

    def __init__(self, sim, topology, config=None, bucket_width=10.0):
        self._bucket_width = bucket_width
        super().__init__(sim, topology, config)
        self.core = LegacyLink(
            "core", self.config.core_bandwidth, sim.now, bucket_width
        )

    def _ensure_host(self, host: str) -> None:
        if host in self._nics:
            return
        now = self.sim.now
        bucket = self._bucket_width
        self._nics[host] = LegacyLink(
            f"nic:{host}", self.config.nic_bandwidth, now, bucket
        )
        rack = self.topology.rack_of(host)
        if rack not in self._uplinks:
            self._uplinks[rack] = LegacyLink(
                f"uplink:{rack}", self.config.uplink_bandwidth, now, bucket
            )

    def _rate_of(self, flow: Flow) -> float:
        if not flow.path:
            return self.config.loopback_bandwidth
        return min(link.fair_share() for link in flow.path)

    def _attach(self, flow: Flow) -> None:
        now = self.sim.now
        for link in flow.path:
            link._add(flow.flow_id, now)
        self._recouple(flow.path, added=flow)

    def _detach(self, flow: Flow) -> None:
        now = self.sim.now
        for link in flow.path:
            link._remove(flow.flow_id, now)
        self._recouple(flow.path, removed=True)

    def _recouple(
        self,
        touched: Iterable[Link],
        added: Optional[Flow] = None,
        removed: bool = False,
    ) -> None:
        """Reassign bottleneck shares to the flows a membership change
        can actually move.

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
        membership change into a full re-rate.  Callers that pass
        neither hint get the unscreened full visit.
        """
        now = self.sim.now
        affected = set()
        if added is not None:
            affected.add(added.flow_id)
        for link in touched:
            n = len(link._flows)
            if n == 0:
                continue
            if added is not None:
                share = link.capacity / n
                for fid in link._flows:
                    flow = self._flows.get(fid)
                    if flow is not None and flow.rate > share:
                        affected.add(fid)
            elif removed:
                prev_share = link.capacity / (n + 1)
                for fid in link._flows:
                    flow = self._flows.get(fid)
                    if flow is not None and flow.rate == prev_share:
                        affected.add(fid)
            else:
                affected.update(link._flows)
        for flow_id in sorted(affected):
            flow = self._flows.get(flow_id)
            if flow is None or flow.state is not FlowState.ACTIVE:
                continue
            rate = self._rate_of(flow)
            if rate != flow.rate:
                flow._set_rate(rate)
            for link in flow.path:
                if link._flows.get(flow_id) != rate:
                    link._set_flow_rate(flow_id, rate, now)
