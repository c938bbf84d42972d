"""Tectonic: an append-only distributed filesystem with media models."""

from .block import Block
from .cache import CacheStats, FeatureCache, StreamKey
from .cluster import (
    ProvisioningDemand,
    ProvisioningPlan,
    TieredPlan,
    provision,
    provision_tiered,
)
from .filesystem import TectonicFile, TectonicFilesystem
from .media import (
    COALESCE_WINDOW_BYTES,
    TECTONIC_CHUNK_BYTES,
    MediaModel,
    hdd_node,
    ssd_node,
)
from .node import ServedIO, StorageNode

__all__ = [
    "CacheStats",
    "FeatureCache",
    "StreamKey",
    "Block",
    "COALESCE_WINDOW_BYTES",
    "MediaModel",
    "ProvisioningDemand",
    "ProvisioningPlan",
    "ServedIO",
    "StorageNode",
    "TECTONIC_CHUNK_BYTES",
    "TectonicFile",
    "TectonicFilesystem",
    "TieredPlan",
    "hdd_node",
    "provision",
    "provision_tiered",
    "ssd_node",
]
