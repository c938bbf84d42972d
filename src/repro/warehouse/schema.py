"""Table schemas and the feature lifecycle.

The paper stores training samples as structured rows whose features live
in *map columns* (Section 3.1.2): a dense column maps feature ID to a
float, a sparse column maps feature ID to a variable-length list of
categorical IDs, and a score column further attaches a float weight to
each categorical ID.  Feature sets evolve rapidly (Table 2): features
are proposed as *beta*, promoted to *experimental* when used by combo or
release-candidate jobs, become *active* when their model version ships,
and are *deprecated* (and eventually reaped) after review.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator

from ..common.errors import SchemaError


class FeatureType(enum.Enum):
    """Physical kind of a feature column."""

    DENSE = "dense"
    SPARSE = "sparse"
    SCORED_SPARSE = "scored_sparse"


class FeatureStatus(enum.Enum):
    """Lifecycle stage of a feature (Section 4.3, Table 2)."""

    BETA = "beta"
    EXPERIMENTAL = "experimental"
    ACTIVE = "active"
    DEPRECATED = "deprecated"

    @property
    def is_logged(self) -> bool:
        """Whether the feature is actively written to the dataset.

        Beta features are not logged; they may only be injected
        dynamically into exploratory jobs.
        """
        return self is not FeatureStatus.BETA


@dataclass(frozen=True)
class FeatureSpec:
    """Static description of one feature column.

    ``coverage`` is the fraction of samples that log the feature and
    ``avg_sparse_length`` the mean categorical-list length for sparse
    features — the two dataset statistics Table 5 reports.
    """

    feature_id: int
    name: str
    ftype: FeatureType
    status: FeatureStatus = FeatureStatus.BETA
    coverage: float = 1.0
    avg_sparse_length: float = 0.0
    created_day: int = 0

    def __post_init__(self) -> None:
        if self.feature_id < 0:
            raise SchemaError(f"feature id must be non-negative, got {self.feature_id}")
        if not 0.0 <= self.coverage <= 1.0:
            raise SchemaError(f"coverage must be in [0, 1], got {self.coverage}")
        if self.ftype is FeatureType.DENSE and self.avg_sparse_length:
            raise SchemaError("dense features have no sparse length")
        if self.ftype is not FeatureType.DENSE and self.avg_sparse_length < 0:
            raise SchemaError("sparse length must be non-negative")

    def with_status(self, status: FeatureStatus) -> "FeatureSpec":
        """Return a copy of this spec at a new lifecycle stage."""
        return replace(self, status=status)


class TableSchema:
    """Schema of one warehouse table: a mutable, evolving feature set."""

    def __init__(self, table_name: str) -> None:
        if not table_name:
            raise SchemaError("table name must be non-empty")
        self.table_name = table_name
        self._features: dict[int, FeatureSpec] = {}

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature_id: int) -> bool:
        return feature_id in self._features

    def __iter__(self) -> Iterator[FeatureSpec]:
        return iter(sorted(self._features.values(), key=lambda spec: spec.feature_id))

    def add_feature(self, spec: FeatureSpec) -> None:
        """Register a new feature; IDs must be unique within the table."""
        if spec.feature_id in self._features:
            raise SchemaError(
                f"feature {spec.feature_id} already exists in {self.table_name}"
            )
        self._features[spec.feature_id] = spec

    def get(self, feature_id: int) -> FeatureSpec:
        """Look up a feature spec by ID."""
        try:
            return self._features[feature_id]
        except KeyError:
            raise SchemaError(
                f"feature {feature_id} not in table {self.table_name}"
            ) from None

    def set_status(self, feature_id: int, status: FeatureStatus) -> None:
        """Move a feature to a new lifecycle stage."""
        self._features[feature_id] = self.get(feature_id).with_status(status)

    def remove_feature(self, feature_id: int) -> None:
        """Reap a feature entirely (e.g. for privacy, Section 4.3)."""
        self.get(feature_id)
        del self._features[feature_id]

    def logged_features(self) -> list[FeatureSpec]:
        """Features actually written to storage (everything but beta)."""
        return [spec for spec in self if spec.status.is_logged]

    def status_counts(self) -> dict[FeatureStatus, int]:
        """Histogram of lifecycle stages — the shape of Table 2."""
        counts = {status: 0 for status in FeatureStatus}
        for spec in self._features.values():
            counts[spec.status] += 1
        return counts

    def feature_ids(self) -> list[int]:
        """All feature IDs in ascending order."""
        return sorted(self._features)
