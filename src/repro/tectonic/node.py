"""Storage nodes: media + capacity + I/O accounting.

A node owns a media model and tracks stored bytes and served I/O so the
cluster can report utilization, effective IOPS, and power efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import CapacityError, StorageError
from .media import MediaModel


@dataclass
class ServedIO:
    """Aggregate record of reads a node has served."""

    io_count: int = 0
    bytes_read: int = 0

    @property
    def seeks(self) -> int:
        """Seeks served: a node read is random, so one per read."""
        return self.io_count


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

    def release(self, n_bytes: int) -> None:
        """Return capacity when a block is deleted."""
        if n_bytes < 0 or n_bytes > self.used_bytes:
            raise StorageError("release out of range")
        self.used_bytes -= n_bytes

    @property
    def utilization(self) -> float:
        """Capacity utilization in [0, 1]."""
        return self.used_bytes / self.media.capacity_bytes
