"""Blocks: the durability unit of the Tectonic filesystem.

Tectonic "splits files into durable blocks distributed across HDD
storage nodes" (Section 3.1.2).  A block may be *materialized* (holding
real bytes, used by small-scale end-to-end experiments) or *virtual*
(size-only, used by large-scale provisioning studies where data content
is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import StorageError


@dataclass
class Block:
    """One chunk of a file, replicated across storage nodes."""

    block_id: int
    file_name: str
    index: int
    length: int
    data: bytes | None = None
    replica_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.length < 0:
            raise StorageError("block length cannot be negative")
        if self.data is not None and len(self.data) != self.length:
            raise StorageError("block data does not match declared length")

    @property
    def is_virtual(self) -> bool:
        """Whether the block tracks size only (no payload)."""
        return self.data is None
