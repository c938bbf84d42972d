"""Storage cluster provisioning: the capacity-vs-IOPS balance.

Section 7.1 reports an over 8× *throughput-to-storage gap*: to satisfy
training-driven IOPS, Meta must provision far more HDD capacity than
datasets need, even after 3× replication.  This module computes that
provisioning math for arbitrary dataset sizes, demand, I/O size
distributions, and media mixes — the substrate for the heterogeneous
storage studies (Section 7.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..common.errors import ConfigError
from .media import MediaModel


@dataclass(frozen=True)
class ProvisioningDemand:
    """What a datacenter region must serve.

    *dataset_bytes* is the logical dataset footprint, *read_bytes_per_s*
    the aggregate training-driven read throughput (0 for bytes nobody
    reads, which are sized by capacity alone), and *io_sizes* a
    representative sample of physical read sizes (e.g. Table 6).
    """

    dataset_bytes: float
    read_bytes_per_s: float
    io_sizes: Sequence[float]
    replication: int = 3

    def __post_init__(self) -> None:
        if self.dataset_bytes <= 0:
            raise ConfigError("dataset size must be positive")
        if self.read_bytes_per_s < 0:
            raise ConfigError("read demand must not be negative")
        if not self.io_sizes:
            raise ConfigError("io_sizes sample must be non-empty")
        if any(size <= 0 for size in self.io_sizes):
            raise ConfigError("io_sizes must all be positive")
        if self.replication < 1:
            raise ConfigError("replication must be at least 1")

    @property
    def mean_io_bytes(self) -> float:
        """Mean physical read size."""
        return sum(self.io_sizes) / len(self.io_sizes)

    @property
    def read_iops(self) -> float:
        """Reads per second implied by throughput and mean I/O size."""
        return self.read_bytes_per_s / self.mean_io_bytes


@dataclass(frozen=True)
class ProvisioningPlan:
    """Node counts and the resulting throughput-to-storage gap."""

    media: MediaModel
    nodes_for_capacity: int
    nodes_for_iops: int

    @property
    def nodes_required(self) -> int:
        """Nodes provisioned: max of the two constraints."""
        return max(self.nodes_for_capacity, self.nodes_for_iops)

    @property
    def throughput_to_storage_gap(self) -> float:
        """How many times more nodes IOPS demands than capacity does.

        > 1 means the fleet buys capacity it does not need just to get
        spindles; the paper reports over 8× for HDD.
        """
        return self.nodes_for_iops / self.nodes_for_capacity

    @property
    def total_watts(self) -> float:
        """Power of the provisioned nodes."""
        return self.nodes_required * self.media.watts

    @property
    def total_capacity_bytes(self) -> float:
        """Capacity of the provisioned nodes."""
        return self.nodes_required * self.media.capacity_bytes


def provision(demand: ProvisioningDemand, media: MediaModel) -> ProvisioningPlan:
    """Compute nodes needed by capacity and by IOPS for one media type."""
    replicated_bytes = demand.dataset_bytes * demand.replication
    nodes_capacity = max(1, math.ceil(replicated_bytes / media.capacity_bytes))
    per_node_iops = media.iops_at_size(demand.mean_io_bytes)
    nodes_iops = math.ceil(demand.read_iops / per_node_iops)
    return ProvisioningPlan(media, nodes_capacity, nodes_iops)


@dataclass(frozen=True)
class TieredPlan:
    """A two-tier plan: hot bytes on SSD, the rest on HDD."""

    hot_fraction: float
    traffic_absorbed: float
    ssd_plan: ProvisioningPlan
    hdd_plan: ProvisioningPlan

    @property
    def total_watts(self) -> float:
        """Combined power of both tiers."""
        return self.ssd_plan.total_watts + self.hdd_plan.total_watts


def provision_tiered(
    demand: ProvisioningDemand,
    hdd: MediaModel,
    ssd: MediaModel,
    hot_fraction: float,
    traffic_absorbed: float,
) -> TieredPlan:
    """Split demand between an SSD cache tier and an HDD capacity tier.

    *hot_fraction* of the dataset goes to SSD and absorbs
    *traffic_absorbed* of the read traffic (the Figure 7 relationship,
    e.g. 0.39 of bytes absorbing 0.80 of traffic for RM1).  A cache
    that absorbs all of it leaves the HDD tier sized by capacity alone.
    """
    if not 0 < hot_fraction < 1:
        raise ConfigError("hot_fraction must be in (0, 1)")
    if not 0 < traffic_absorbed <= 1:
        raise ConfigError("traffic_absorbed must be in (0, 1]")
    if traffic_absorbed < hot_fraction:
        raise ConfigError("a useful cache absorbs more traffic than it holds bytes")
    ssd_demand = ProvisioningDemand(
        dataset_bytes=demand.dataset_bytes * hot_fraction,
        read_bytes_per_s=demand.read_bytes_per_s * traffic_absorbed,
        io_sizes=demand.io_sizes,
        replication=demand.replication,
    )
    hdd_demand = ProvisioningDemand(
        dataset_bytes=demand.dataset_bytes * (1 - hot_fraction),
        read_bytes_per_s=demand.read_bytes_per_s * (1 - traffic_absorbed),
        io_sizes=demand.io_sizes,
        replication=demand.replication,
    )
    return TieredPlan(
        hot_fraction=hot_fraction,
        traffic_absorbed=traffic_absorbed,
        ssd_plan=provision(ssd_demand, ssd),
        hdd_plan=provision(hdd_demand, hdd),
    )
