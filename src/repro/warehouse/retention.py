"""Retention and privacy reaping for warehouse tables.

Section 4.3: deprecated features "may become deprecated following a
review process or even reaped to protect user privacy", and datasets
are partitioned by date with bounded retention (fresh samples arrive
continuously; old partitions age out).  This module implements both
processes against real tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import SchemaError
from .schema import FeatureStatus, TableSchema
from .table import Table


@dataclass(frozen=True)
class RetentionPolicy:
    """How long partitions live and when deprecated features reap."""

    max_partitions: int  # keep only the newest N date partitions
    reap_deprecated_after_days: int = 90

    def __post_init__(self) -> None:
        if self.max_partitions < 1:
            raise SchemaError("must retain at least one partition")
        if self.reap_deprecated_after_days < 0:
            raise SchemaError("reap age cannot be negative")


@dataclass
class RetentionReport:
    """What one enforcement pass removed."""

    partitions_dropped: list[str]
    features_reaped: list[int]
    bytes_reclaimed: int


def enforce_retention(
    table: Table,
    policy: RetentionPolicy,
    current_day: int = 0,
) -> RetentionReport:
    """Drop aged partitions and reap old deprecated features.

    Partition order is insertion (chronological) order; the oldest
    partitions beyond ``max_partitions`` drop.  Deprecated features
    whose ``created_day`` is older than the reap age are removed from
    the schema *and* scrubbed from every retained row — the privacy
    guarantee is physical removal, not just metadata.
    """
    dropped: list[str] = []
    reclaimed = 0
    names = table.partition_names()
    excess = len(names) - policy.max_partitions
    for name in names[:max(0, excess)]:
        reclaimed += table.partition(name).nominal_bytes()
        table.drop_partition(name)
        dropped.append(name)

    reaped = _reap_deprecated(table, policy, current_day)
    return RetentionReport(
        partitions_dropped=dropped,
        features_reaped=reaped,
        bytes_reclaimed=reclaimed,
    )


def _reap_deprecated(
    table: Table, policy: RetentionPolicy, current_day: int
) -> list[int]:
    schema: TableSchema = table.schema
    to_reap = [
        spec.feature_id
        for spec in schema
        if spec.status is FeatureStatus.DEPRECATED
        and current_day - spec.created_day >= policy.reap_deprecated_after_days
    ]
    for feature_id in to_reap:
        schema.remove_feature(feature_id)
        for row in table.scan():
            if feature_id in row.dense:
                row.dense = _without(row.dense, feature_id)
            if feature_id in row.sparse:
                row.sparse = _without(row.sparse, feature_id)
            if feature_id in row.scores:
                row.scores = _without(row.scores, feature_id)
    return to_reap


def _without(features: dict, feature_id: int) -> dict:
    """*features* minus one feature, as a new map.

    A published row shares its maps with the serving-time feature record
    it was joined from, and that record stays readable until Scribe's
    own retention trims it.  Reaping therefore replaces a row's map
    rather than popping from it: the table forgets the feature, the raw
    log is not rewritten behind its readers.
    """
    return {fid: value for fid, value in features.items() if fid != feature_id}


def verify_reaped(table: Table, feature_id: int) -> bool:
    """Audit helper: True when no retained row still logs the feature."""
    if feature_id in table.schema:
        return False
    return all(not row.has_feature(feature_id) for row in table.scan())
