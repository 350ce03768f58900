"""DataNodes: block storage bound to a simulated node's kernel.

A DataNode holds block replicas and serves reads through the owning
node's disk and page cache, so the timing of HDFS I/O and the memory
effects of caching block data both flow through the OS model (which is
what makes the paper's swappiness discussion meaningful).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional

from repro.errors import BlockNotFoundError
from repro.hdfs.block import Block
from repro.osmodel.kernel import NodeKernel


def _deliver(on_done: Callable[[], None], flow) -> None:
    """Flow-completion adapter: drop the flow argument (picklable
    stand-in for ``lambda flow: on_done()``)."""
    on_done()


class DataNode:
    """Block storage on one simulated machine."""

    def __init__(self, kernel: NodeKernel):
        self.kernel = kernel
        self.host = kernel.config.hostname
        self._blocks: Dict[int, Block] = {}
        self.bytes_served = 0
        self.remote_bytes_served = 0

    def store(self, block: Block) -> None:
        """Accept a replica of ``block``."""
        self._blocks[block.block_id] = block

    def used_bytes(self) -> int:
        """Total bytes of replicas stored here."""
        return sum(b.size for b in self._blocks.values())

    def read_block(
        self,
        block_id: int,
        on_done: Callable[[], None],
        label: str = "",
        reader_host: Optional[str] = None,
    ) -> None:
        """Stream a full block to ``reader_host`` (default: local).

        The replica is always read off this node's disk (through its
        page cache); when the reader lives elsewhere and the cluster
        has a network fabric, the bytes then cross it as a flow --
        remote HDFS reads contend with shuffle traffic for the same
        NICs and uplinks.  Without a fabric the transfer hop is free,
        preserving the historical network-less timing.  Raises if the
        replica is not here.
        """
        block = self._blocks.get(block_id)
        if block is None:
            raise BlockNotFoundError(
                f"datanode {self.host} does not store block {block_id}"
            )
        self.bytes_served += block.size
        label = label or f"hdfs.read:blk_{block_id}"
        fabric = self.kernel.fabric
        if reader_host and reader_host != self.host and fabric is not None:
            self.remote_bytes_served += block.size
            ship = functools.partial(
                self._ship, block.size, reader_host, on_done, label
            )
            self.kernel.read_file(block.size, ship, label=label)
        else:
            self.kernel.read_file(block.size, on_done, label=label)

    def _ship(
        self,
        nbytes: int,
        reader_host: str,
        on_done: Callable[[], None],
        label: str,
    ) -> None:
        self.kernel.fabric.start_flow(
            self.host,
            reader_host,
            nbytes,
            functools.partial(_deliver, on_done),
            label=label,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DataNode(host={self.host!r}, blocks={len(self._blocks)})"
