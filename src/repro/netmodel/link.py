"""Links: the shared segments of the fabric.

A :class:`Link` is a capacity shared equally among the flows that
cross it -- the same egalitarian processor-sharing policy as
:class:`~repro.osmodel.resources.RateResource`, but a flow's *actual*
rate is set by its bottleneck link, so a link cannot integrate one
cumulative service function for all of its flows (they progress at
different rates).  The link therefore keeps only its member flows and
one cached fair :attr:`~Link.share`, refreshed on every membership
change; per-flow progress lives in each flow's own virtual-time pipe
(see :mod:`repro.netmodel.flow`), and the
:class:`~repro.netmodel.fabric.Fabric` couples the two.

A *metered* link (``NetConfig.meter_utilization``) also integrates its
aggregate flow rate: the rate is piecewise constant between fabric
updates, so the byte integral is exact.  Unmetered links skip that
work, and their :meth:`~Link.mean_utilization` raises.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netmodel.flow import Flow


class Link:
    """One shared network segment (NIC, rack uplink, core switch)."""

    __slots__ = (
        "name",
        "_capacity",
        "share",
        "_flows",
        "metered",
        "_rate_sum",
        "_last_at",
        "_created_at",
        "bytes_carried",
    )

    def __init__(
        self, name: str, capacity: float, now: float, metered: bool = False
    ):
        if capacity <= 0:
            raise SimulationError(f"{name}: link capacity must be positive")
        self.name = name
        #: flow_id -> member flow; insertion-ordered for determinism
        self._flows: Dict[int, "Flow"] = {}
        self.capacity = float(capacity)
        self.metered = metered
        #: sum of the current rates of all flows on this link (metered)
        self._rate_sum = 0.0
        self._last_at = now
        self._created_at = now
        self.bytes_carried = 0.0

    # -- fair sharing ------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Line rate in bytes/second."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: float) -> None:
        self._capacity = value
        #: bytes/second each crossing flow is entitled to
        self.share = value / (len(self._flows) or 1)

    @property
    def flow_count(self) -> int:
        """Number of flows currently crossing this link."""
        return len(self._flows)

    # -- membership (fabric-internal) --------------------------------------

    def _add(self, flow: "Flow") -> None:
        # A newcomer's rate is metered when the fabric first rates it.
        self._flows[flow.flow_id] = flow
        self.share = self._capacity / len(self._flows)

    def _remove(self, flow: "Flow", now: float) -> None:
        flows = self._flows
        del flows[flow.flow_id]
        self.share = self._capacity / (len(flows) or 1)
        if self.metered:
            self._accumulate(now)
            self._rate_sum -= flow.rate
            if not flows:
                self._rate_sum = 0.0  # kill residual float dust

    def _meter(self, delta: float, now: float) -> None:
        """A member's rate moved by ``delta`` (metered links only)."""
        self._accumulate(now)
        self._rate_sum += delta

    # -- utilization accounting ----------------------------------------------

    def _accumulate(self, now: float) -> None:
        """Fold the piecewise-constant aggregate rate since the last
        change into the byte integral."""
        elapsed = now - self._last_at
        if elapsed > 0 and self._rate_sum > 0:
            self.bytes_carried += self._rate_sum * elapsed
        self._last_at = now

    def mean_utilization(self, now: float) -> float:
        """Fraction of capacity used since construction, settled to now."""
        if not self.metered:
            raise SimulationError(
                f"{self.name}: utilization is not metered "
                "(NetConfig.meter_utilization is off)"
            )
        self._accumulate(now)
        elapsed = now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self.bytes_carried / (self._capacity * elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link(name={self.name!r}, flows={len(self._flows)})"
