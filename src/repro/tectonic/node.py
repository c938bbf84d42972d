"""Storage nodes: media + capacity + I/O accounting.

A node owns a media model and tracks stored bytes and served I/O so the
cluster can report utilization, effective IOPS, and power efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import CapacityError, StorageError
from .media import MediaModel


@dataclass
class ServedIO:
    """Aggregate record of reads a node has served."""

    io_count: int = 0
    bytes_read: int = 0


class StorageNode:
    """One storage node in a Tectonic cluster."""

    def __init__(self, node_id: int, media: MediaModel) -> None:
        self.node_id = node_id
        self.media = media
        self.used_bytes = 0
        self.served = ServedIO()

    @property
    def free_bytes(self) -> float:
        """Remaining capacity."""
        return self.media.capacity_bytes - self.used_bytes

    def allocate(self, n_bytes: int) -> None:
        """Reserve capacity for a block replica."""
        if n_bytes < 0:
            raise StorageError("cannot allocate negative bytes")
        if n_bytes > self.free_bytes:
            raise CapacityError(
                f"node {self.node_id} has {self.free_bytes:.0f} B free, "
                f"needs {n_bytes}"
            )
        self.used_bytes += n_bytes
