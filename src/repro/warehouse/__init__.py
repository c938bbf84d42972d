"""Hive-like data warehouse: schemas, partitioned tables, sample generation."""

from .generator import (
    DatasetProfile,
    SampleGenerator,
    measured_avg_sparse_length,
    measured_coverage,
)
from .publish import partition_file_name, publish_table
from .retention import (
    RetentionPolicy,
    RetentionReport,
    enforce_retention,
    verify_reaped,
)
from .row import FeatureColumn, Row, SampleBatch
from .schema import FeatureSpec, FeatureStatus, FeatureType, TableSchema
from .table import Partition, Table

__all__ = [
    "RetentionPolicy",
    "RetentionReport",
    "enforce_retention",
    "verify_reaped",
    "DatasetProfile",
    "FeatureColumn",
    "FeatureSpec",
    "FeatureStatus",
    "FeatureType",
    "Partition",
    "Row",
    "SampleBatch",
    "SampleGenerator",
    "Table",
    "TableSchema",
    "measured_avg_sparse_length",
    "measured_coverage",
    "partition_file_name",
    "publish_table",
]
