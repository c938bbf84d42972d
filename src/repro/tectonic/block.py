"""Blocks: the durability unit of the Tectonic filesystem.

Tectonic "splits files into durable blocks distributed across HDD
storage nodes" (Section 3.1.2).  A block is placement only: which file
it belongs to, where it sits in that file, how long it is and which
nodes hold its replicas.  The bytes it covers are the file's own
(:attr:`~repro.tectonic.TectonicFile.data`).
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
    replica_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.length < 0:
            raise StorageError("block length cannot be negative")
