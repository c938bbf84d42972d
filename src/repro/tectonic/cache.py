"""SSD feature-stream caching: Section 7.2's heterogeneous storage.

"There are further software and hardware optimization opportunities,
such as placing commonly-used features (Figure 7) on SSD-based caches."
This module implements that cache in front of the HDD tier:

* admission by *feature popularity* — the storage layer predicts hot
  streams from recent training-job reads (the same signal feature
  reordering uses);
* byte-budgeted capacity with popularity-weighted eviction;
* service-time accounting against both media so experiments can
  measure delivered throughput and power per configuration.

The cache indexes logical *stream ranges* (file, offset, length), the
natural cacheable unit of DWRF reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..common.errors import StorageError
from .media import MediaModel, hdd_node, ssd_node

#: Default bound on remembered-but-not-resident keys (the ghost list).
DEFAULT_GHOST_CAPACITY = 65_536


@dataclass(frozen=True)
class StreamKey:
    """Identity of one cached byte range."""

    file_name: str
    offset: int
    length: int


@dataclass
class CacheStats:
    """Hit/miss accounting in requests and bytes."""

    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def byte_hit_rate(self) -> float:
        """Byte-weighted hit rate; 0 when never used."""
        total = self.hit_bytes + self.miss_bytes
        return self.hit_bytes / total if total else 0.0


class FeatureCache:
    """Popularity-admitted, byte-budgeted SSD cache over an HDD tier."""

    def __init__(
        self,
        capacity_bytes: int,
        ssd: MediaModel | None = None,
        hdd: MediaModel | None = None,
        admission_threshold: int = 2,
        ghost_capacity: int = DEFAULT_GHOST_CAPACITY,
    ) -> None:
        if capacity_bytes <= 0:
            raise StorageError("cache capacity must be positive")
        if admission_threshold < 1:
            raise StorageError("admission threshold must be at least 1")
        if ghost_capacity < 1:
            raise StorageError("ghost capacity must be at least 1")
        self.capacity_bytes = capacity_bytes
        self.ssd = ssd or ssd_node()
        self.hdd = hdd or hdd_node()
        self.admission_threshold = admission_threshold
        self.ghost_capacity = ghost_capacity
        self._resident: dict[StreamKey, int] = {}  # key -> popularity
        # Miss history for admission ("ghost" entries: remembered, not
        # resident).  Bounded: an unbounded ghost list grows linearly
        # under scan workloads — every missed key remembered forever.
        # Keys are kept in recency-of-miss order; when full, the
        # coldest entry (least recently missed, which under a scan is
        # also the lowest-count) is forgotten.
        self._ghost: OrderedDict[StreamKey, int] = OrderedDict()
        self.used_bytes = 0
        self.stats = CacheStats()
        self._ssd_time = 0.0
        self._hdd_time = 0.0

    # -- the read path ---------------------------------------------------------

    def read(self, key: StreamKey) -> float:
        """Serve one stream read; returns the service time.

        Hits go to SSD; misses go to HDD, bump the key's popularity,
        and are admitted once the key has been requested
        ``admission_threshold`` times (scan resistance).
        """
        if key in self._resident:
            self.stats.hits += 1
            self.stats.hit_bytes += key.length
            self._resident[key] += 1
            service = self.ssd.service_time(key.length)
            self._ssd_time += service
            return service

        self.stats.misses += 1
        self.stats.miss_bytes += key.length
        count = self._ghost.pop(key, 0) + 1
        if count >= self.admission_threshold:
            self._admit(key, count)
        else:
            self._ghost[key] = count  # re-insert at the hot (recent) end
            if len(self._ghost) > self.ghost_capacity:
                self._ghost.popitem(last=False)
        service = self.hdd.service_time(key.length)
        self._hdd_time += service
        return service

    def _admit(self, key: StreamKey, popularity: int) -> None:
        if key.length > self.capacity_bytes:
            return  # never cache a range bigger than the whole tier
        while self.used_bytes + key.length > self.capacity_bytes:
            self._evict_coldest()
        self._resident[key] = popularity
        self.used_bytes += key.length

    def _evict_coldest(self) -> None:
        if not self._resident:
            raise StorageError("cache accounting corrupt: nothing to evict")
        coldest = min(self._resident, key=lambda k: (self._resident[k], -k.length))
        self.used_bytes -= coldest.length
        # Demote to the ghost list so a re-warming key re-admits fast;
        # the ghost bound still applies.
        self._ghost[coldest] = self._resident.pop(coldest)
        if len(self._ghost) > self.ghost_capacity:
            self._ghost.popitem(last=False)
        self.stats.evictions += 1

    # -- accounting ---------------------------------------------------------------

    def total_service_time(self) -> float:
        """Device time consumed across both tiers."""
        return self._ssd_time + self._hdd_time

    def hdd_only_time(self) -> float:
        """Counterfactual: device time had every read gone to HDD."""
        served = self.stats.hit_bytes + self.stats.miss_bytes
        if self.stats.requests == 0:
            raise StorageError("no reads served yet")
        mean = served / self.stats.requests
        return self.stats.requests * self.hdd.service_time(mean)

    def speedup_vs_hdd(self) -> float:
        """Delivered-throughput gain over the all-HDD counterfactual."""
        return self.hdd_only_time() / self.total_service_time()
