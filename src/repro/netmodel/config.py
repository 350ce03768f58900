"""Network fabric configuration.

Bandwidths are bytes/second.  The defaults describe the classic
oversubscribed Hadoop pod: gigabit NICs, a per-rack uplink carrying a
fraction of the rack's aggregate NIC bandwidth (the *oversubscription
ratio* every datacenter-network paper fights about), and a core that
is fast relative to any single uplink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import MB

#: 1 GbE in bytes/second -- the paper-era Hadoop cluster NIC.
GIGABIT = 125 * MB


@dataclass(frozen=True)
class NetConfig:
    """Knobs of one :class:`~repro.netmodel.fabric.Fabric`.

    Attributes
    ----------
    nic_bandwidth:
        Line rate of every host NIC (one shared segment per host; send
        and receive share it, which keeps the link count linear in
        hosts).
    uplink_bandwidth:
        Rack uplink (ToR-to-core) bandwidth.  See
        :meth:`oversubscribed` for deriving it from a ratio.
    core_bandwidth:
        The core switch, modelled as one shared segment.
    loopback_bandwidth:
        Rate of host-local transfers (empty path: the data never
        leaves the machine, so it moves at memory/disk speed).
    max_flows_per_host:
        Cap on concurrently active inbound flows per destination host
        (Hadoop's ``mapred.reduce.parallel.copies`` aggregated at node
        level); further fetches queue FIFO in the
        :class:`~repro.netmodel.transfer.TransferManager`.
    meter_utilization:
        Integrate every link's carried bytes, so
        :meth:`~repro.netmodel.link.Link.mean_utilization` can be read.
        Off by default: the meter costs a write per link on every rate
        change, and only the shuffle study reads it.
    """

    nic_bandwidth: float = float(GIGABIT)
    uplink_bandwidth: float = float(4 * GIGABIT)
    core_bandwidth: float = float(16 * GIGABIT)
    loopback_bandwidth: float = float(10 * GIGABIT)
    max_flows_per_host: int = 5
    meter_utilization: bool = False

    def __post_init__(self) -> None:
        for name in (
            "nic_bandwidth",
            "uplink_bandwidth",
            "core_bandwidth",
            "loopback_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_flows_per_host < 1:
            raise ConfigurationError("max_flows_per_host must be at least 1")

    @classmethod
    def oversubscribed(
        cls,
        hosts_per_rack: int,
        oversubscription: float,
        nic_bandwidth: float = float(GIGABIT),
        **overrides,
    ) -> "NetConfig":
        """A fabric whose rack uplinks carry ``1/oversubscription`` of
        the rack's aggregate NIC bandwidth (ratio 1.0 = non-blocking;
        the shuffle study uses >= 2).  The core is sized at twice one
        uplink so contention concentrates where real pods have it."""
        if hosts_per_rack < 1:
            raise ConfigurationError("hosts_per_rack must be at least 1")
        if oversubscription <= 0:
            raise ConfigurationError("oversubscription must be positive")
        uplink = nic_bandwidth * hosts_per_rack / oversubscription
        return cls(
            nic_bandwidth=float(nic_bandwidth),
            uplink_bandwidth=float(uplink),
            core_bandwidth=float(2 * uplink),
            **overrides,
        )

    def replace(self, **overrides) -> "NetConfig":
        """Copy with the given fields replaced."""
        return replace(self, **overrides)
