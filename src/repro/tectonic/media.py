"""Storage media service-time and power models.

The paper's storage-layer findings are consequences of HDD mechanics:
every non-sequential read pays a seek, so small I/Os (Table 6) collapse
achievable IOPS and throughput (Table 12's −97% after feature
flattening).  We model a read as ``seek_time + bytes / bandwidth`` and
derive throughput and IOPS from real I/O traces.

The node presets are calibrated so that the SSD node provides ≈326%
IOPS per watt and ≈9% capacity per watt relative to the HDD node, the
two ratios Section 7.2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..common.errors import ConfigError
from ..common.units import GB, MB, TB, mebibytes


@dataclass(frozen=True)
class MediaModel:
    """Analytical model of one storage device/node's read path."""

    name: str
    seek_time_s: float
    bandwidth_bytes_per_s: float
    capacity_bytes: float
    watts: float

    def __post_init__(self) -> None:
        if self.seek_time_s < 0:
            raise ConfigError("seek time cannot be negative")
        if self.bandwidth_bytes_per_s <= 0 or self.capacity_bytes <= 0:
            raise ConfigError("bandwidth and capacity must be positive")
        if self.watts <= 0:
            raise ConfigError("power must be positive")

    def service_time(self, io_bytes: float) -> float:
        """Seconds to serve one (random) read of *io_bytes*: a seek plus
        the transfer."""
        if io_bytes < 0:
            raise ConfigError("io size cannot be negative")
        return self.seek_time_s + io_bytes / self.bandwidth_bytes_per_s

    def iops_at_size(self, io_bytes: float) -> float:
        """Random-read IOPS the device sustains at a fixed I/O size."""
        return 1.0 / self.service_time(io_bytes)

    def throughput_at_size(self, io_bytes: float) -> float:
        """Random-read bytes/s at a fixed I/O size."""
        return io_bytes / self.service_time(io_bytes)

    def iops_per_watt(self, io_bytes: float) -> float:
        """Power efficiency of random reads at a fixed I/O size."""
        return self.iops_at_size(io_bytes) / self.watts

    def capacity_per_watt(self) -> float:
        """Bytes of capacity per watt."""
        return self.capacity_bytes / self.watts

    def trace_time(self, io_sizes: Sequence[float], seeks: int) -> float:
        """Seconds to serve a trace of reads containing *seeks* seeks."""
        if seeks < 0 or seeks > len(io_sizes):
            raise ConfigError("seek count out of range")
        transfer = sum(io_sizes) / self.bandwidth_bytes_per_s
        return transfer + seeks * self.seek_time_s

    def trace_throughput(
        self, io_sizes: Sequence[float], seeks: int, useful_bytes: float | None = None
    ) -> float:
        """Useful bytes/s delivered for a trace of reads.

        *useful_bytes* defaults to the full transfer; pass the
        projection-relevant byte count to measure goodput in the
        presence of over-reads.
        """
        time = self.trace_time(io_sizes, seeks)
        if time == 0:
            raise ConfigError("empty trace has no throughput")
        delivered = sum(io_sizes) if useful_bytes is None else useful_bytes
        return delivered / time


def hdd_node() -> MediaModel:
    """An HDD-based Tectonic storage node.

    ~15 spindles behind one node: aggregate 216 TB, ~1.5 GB/s streaming,
    an effective 0.53 ms average seek (15 actuators in parallel), 72 W.
    """
    return MediaModel(
        name="hdd-node",
        seek_time_s=0.00053,
        bandwidth_bytes_per_s=1.5 * GB,
        capacity_bytes=216 * TB,
        watts=72.0,
    )


def ssd_node() -> MediaModel:
    """An SSD-based storage node.

    Calibrated against :func:`hdd_node` to the paper's Section 7.2
    ratios: ≈326% IOPS/W and ≈9% capacity/W at 4 KiB random reads.
    """
    return MediaModel(
        name="ssd-node",
        seek_time_s=0.000326,  # node-level: software + NIC overhead dominates flash
        bandwidth_bytes_per_s=6.0 * GB,
        capacity_bytes=9.72 * TB,
        watts=36.0,
    )


TECTONIC_CHUNK_BYTES = int(mebibytes(8))  # "almost 8 MB (Tectonic's chunk size)"
COALESCE_WINDOW_BYTES = int(mebibytes(1.25))  # production coalesced-read window


def effective_iops(media: MediaModel, io_sizes: Iterable[float]) -> float:
    """IOPS over a mixed-size random trace (each read seeks)."""
    sizes = list(io_sizes)
    if not sizes:
        raise ConfigError("empty I/O trace")
    total_time = media.trace_time(sizes, seeks=len(sizes))
    return len(sizes) / total_time
