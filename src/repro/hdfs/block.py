"""HDFS blocks and their placements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.units import MB, format_size

#: Hadoop 1 default block size; the paper's inputs are single 512 MB blocks.
DEFAULT_BLOCK_SIZE = 512 * MB


@dataclass(frozen=True)
class Block:
    """One immutable HDFS block."""

    block_id: int
    path: str
    index: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("block size may not be negative")

    def __str__(self) -> str:
        return f"blk_{self.block_id}[{self.path}#{self.index}, {format_size(self.size)}]"


@dataclass
class BlockLocation:
    """Where the replicas of one block live."""

    block: Block
    hosts: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.block} @ {','.join(self.hosts) or '<unplaced>'}"
