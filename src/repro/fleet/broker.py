"""Shared-storage arbitration: one Tectonic fabric, many jobs.

Section 7.1 provisions storage for *aggregate* training demand — no
single job owns the cluster.  :class:`StorageBroker` makes that
explicit: active sessions declare read demand each control interval,
and the broker apportions the fabric's HDD bandwidth, the shared SSD
cache tier's bytes, and the cache's bandwidth across them with max-min
fairness.  A job's achievable preprocessing rate is then capped by its
*grant*, so concurrent jobs contend realistically instead of each
seeing a private filesystem.  The fleet simulator's tick is the one
caller: it splits each job's demand between tiers by its
:meth:`StorageBroker.cache_absorbed_fraction` and hands both demand
columns to :meth:`StorageBroker.water_fill`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..common.errors import ConfigError, StorageError
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..tectonic.media import COALESCE_WINDOW_BYTES, MediaModel, hdd_node, ssd_node


def max_min_share(demands: Sequence[float], capacity: float) -> list[float]:
    """Max-min fair allocation of *capacity* across *demands*.

    Classic water-filling: small demands are fully satisfied; the
    remainder is split evenly among the still-unsatisfied.  Returns one
    grant per demand, summing to at most *capacity*.

    One sorted prefix-sum pass: in ascending demand order, the water
    level at position *i* is
    ``(capacity - sum(smaller demands)) / (n - i)``; every demand below
    its level is fully granted, and the first demand above it fixes the
    level that all remaining (still-unsatisfied) demands share.  This
    runs per tick per tier in the fleet simulator, over tens of jobs —
    sizes at which plain Python beats numpy's per-call dispatch.
    """
    if capacity < 0:
        raise ConfigError("capacity cannot be negative")
    n = len(demands)
    for asked in demands:
        if asked < 0.0:
            raise ConfigError("demands cannot be negative")
    order = sorted(range(n), key=demands.__getitem__)
    grants = [0.0] * n
    filled_below = 0.0
    level = None
    cut = n
    for position, index in enumerate(order):
        asked = demands[index]
        fair = (capacity - filled_below) / (n - position)
        if asked > fair:
            level = fair
            cut = position
            break
        grants[index] = asked
        filled_below += asked
    if level is not None:
        for index in order[cut:]:
            grants[index] = level
    return grants


@dataclass(frozen=True)
class StorageFabric:
    """Capacity description of one region's shared storage.

    An HDD-backed Tectonic tier plus an optional SSD cache tier
    (Section 7.2's heterogeneous storage).  Bandwidths are derated by
    per-read seek mechanics at *mean_io_bytes*, the coalesced physical
    read size.
    """

    n_hdd_nodes: int
    n_ssd_cache_nodes: int = 0
    hdd: MediaModel = field(default_factory=hdd_node)
    ssd: MediaModel = field(default_factory=ssd_node)
    mean_io_bytes: float = float(COALESCE_WINDOW_BYTES)

    def __post_init__(self) -> None:
        if self.n_hdd_nodes < 1:
            raise ConfigError("fabric needs at least one HDD node")
        if self.n_ssd_cache_nodes < 0:
            raise ConfigError("cache node count cannot be negative")
        if self.mean_io_bytes <= 0:
            raise ConfigError("mean I/O size must be positive")

    @property
    def hdd_bandwidth(self) -> float:
        """Aggregate HDD random-read bytes/s at the mean I/O size."""
        return self.n_hdd_nodes * self.hdd.throughput_at_size(self.mean_io_bytes)

    @property
    def ssd_bandwidth(self) -> float:
        """Aggregate cache-tier bytes/s at the mean I/O size."""
        return self.n_ssd_cache_nodes * self.ssd.throughput_at_size(self.mean_io_bytes)

    @property
    def cache_capacity_bytes(self) -> float:
        """Bytes the cache tier can hold."""
        return self.n_ssd_cache_nodes * self.ssd.capacity_bytes

    @property
    def total_bandwidth(self) -> float:
        """Both tiers' aggregate bytes/s."""
        return self.hdd_bandwidth + self.ssd_bandwidth

    @property
    def total_watts(self) -> float:
        """Storage power, both tiers (for the fleet power budget)."""
        return self.n_hdd_nodes * self.hdd.watts + self.n_ssd_cache_nodes * self.ssd.watts


@dataclass
class _SessionRecord:
    dataset_bytes: float
    popularity_bytes_for_80pct: float
    hot_fraction: float = 0.0


class StorageBroker:
    """Apportions a shared fabric across active training sessions."""

    def __init__(self, fabric: StorageFabric) -> None:
        self.fabric = fabric
        self._sessions: dict[int, _SessionRecord] = {}
        # Chaos-plane hook: fraction of nominal bandwidth currently
        # deliverable (degraded Tectonic — node loss, rebuild traffic).
        self._bandwidth_derate = 1.0
        # The fabric is frozen, but its tier bandwidths are derived
        # through seek-mechanics math; the fleet's grant pass reads them
        # every tick, so resolve them once.
        self._hdd_bandwidth = fabric.hdd_bandwidth
        self._ssd_bandwidth = fabric.ssd_bandwidth
        # Telemetry (attach_tracer): lifecycle/derate instants.  The
        # shared NULL_TRACER keeps every site to a single `enabled`
        # check when tracing is off.
        self.tracer = NULL_TRACER

    def attach_tracer(self, tracer: Tracer) -> None:
        """Report broker activity through *tracer* (whose clock the
        owning simulator has already bound)."""
        self.tracer = tracer

    # -- fault injection -----------------------------------------------------

    def set_bandwidth_derate(self, fraction: float) -> None:
        """Degrade (or restore) the fabric to *fraction* of nominal.

        Grants issued by subsequent :meth:`water_fill` calls shrink
        proportionally; 1.0 restores full service.
        """
        if not 0 < fraction <= 1:
            raise StorageError("bandwidth derate must be in (0, 1]")
        self._bandwidth_derate = fraction
        if self.tracer.enabled:
            self.tracer.instant(
                "broker.derate", actor="broker", fraction=fraction
            )

    # -- session lifecycle -------------------------------------------------

    def register(
        self, job_id: int, dataset_bytes: float, popularity_bytes_for_80pct: float
    ) -> None:
        """Announce a session's dataset so cache bytes can be assigned."""
        if job_id in self._sessions:
            raise StorageError(f"job {job_id} already registered")
        if dataset_bytes <= 0:
            raise StorageError("dataset size must be positive")
        if not 0 < popularity_bytes_for_80pct < 1:
            raise StorageError("popularity fraction must be in (0, 1)")
        self._sessions[job_id] = _SessionRecord(
            dataset_bytes, popularity_bytes_for_80pct
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "broker.register",
                actor="broker",
                job_id=job_id,
                sessions=len(self._sessions),
            )
        self.rebalance_cache()

    def unregister(self, job_id: int) -> None:
        """Drop a finished session and return its cache bytes."""
        if job_id not in self._sessions:
            raise StorageError(f"job {job_id} is not registered")
        del self._sessions[job_id]
        if self.tracer.enabled:
            self.tracer.instant(
                "broker.unregister",
                actor="broker",
                job_id=job_id,
                sessions=len(self._sessions),
            )
        self.rebalance_cache()

    # -- cache apportionment -----------------------------------------------

    def rebalance_cache(self) -> None:
        """Re-split cache capacity across sessions' datasets.

        Capacity is shared max-min on dataset size (a small dataset can
        be fully resident while big ones split the rest), then each
        session's *hot fraction* is its cache bytes over its dataset.
        """
        if not self._sessions:
            return
        ids = sorted(self._sessions)
        sizes = [self._sessions[i].dataset_bytes for i in ids]
        shares = max_min_share(sizes, self.fabric.cache_capacity_bytes)
        for job_id, share in zip(ids, shares):
            record = self._sessions[job_id]
            record.hot_fraction = min(1.0, share / record.dataset_bytes)

    def cache_absorbed_fraction(self, job_id: int) -> float:
        """Traffic share the job's cached bytes absorb (Figure 7).

        Popularity skew makes caching super-linear: the model's
        ``popularity_bytes_for_80pct`` hottest bytes absorb 80% of
        traffic.  A power law through (0,0), (pop80, 0.8), (1,1)
        interpolates other cache sizes.  Computed on every call: the
        fleet reads it once per job per membership epoch.
        """
        record = self._sessions[job_id]
        hot = record.hot_fraction
        if hot <= 0.0:
            return 0.0
        if hot >= 1.0:
            return 1.0
        alpha = math.log(0.8) / math.log(record.popularity_bytes_for_80pct)
        return hot**alpha

    # -- bandwidth apportionment ---------------------------------------------

    def water_fill(
        self, ssd_demands: Sequence[float], hdd_demands: Sequence[float]
    ) -> tuple[list[float], list[float]]:
        """One control interval's grants: each tier's demand column
        shared max-min fair over that tier's derated bandwidth.

        Returns ``(ssd, hdd)`` grant lists aligned with the columns.
        Unsatisfied demand is simply not granted — the caller throttles
        the job's preprocessing rate to its grant.
        """
        derate = self._bandwidth_derate
        return (
            max_min_share(ssd_demands, self._ssd_bandwidth * derate),
            max_min_share(hdd_demands, self._hdd_bandwidth * derate),
        )
