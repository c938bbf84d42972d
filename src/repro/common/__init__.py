"""Shared utilities: units, statistics, simulation kernel, resources."""

from .errors import (
    CapacityError,
    ConfigError,
    DppError,
    FormatError,
    ReproError,
    SchedulingError,
    SchemaError,
    StorageError,
    TransformError,
    WorkerFailure,
)
from .hashing import fnv1a_64, stable_fraction, stable_hash
from .resources import HostModel, ResourceSpec, ResourceUsage, UtilizationReport
from .serialization import (
    ReportBase,
    dump_json,
    load_json,
    null_specials,
    percentile,
    percentile_summary,
    record_from_row,
    record_row,
    report_from_json,
    require_keys,
    revive_float,
)
from .simclock import EventHandle, SimClock
from .stats import (
    CdfPoint,
    DistributionSummary,
    summarize,
)

__all__ = [
    "CapacityError",
    "CdfPoint",
    "ConfigError",
    "DistributionSummary",
    "DppError",
    "EventHandle",
    "FormatError",
    "HostModel",
    "ReportBase",
    "ReproError",
    "ResourceSpec",
    "ResourceUsage",
    "SchedulingError",
    "SchemaError",
    "SimClock",
    "StorageError",
    "TransformError",
    "UtilizationReport",
    "WorkerFailure",
    "dump_json",
    "fnv1a_64",
    "load_json",
    "null_specials",
    "percentile",
    "percentile_summary",
    "record_from_row",
    "record_row",
    "report_from_json",
    "require_keys",
    "revive_float",
    "stable_fraction",
    "stable_hash",
    "summarize",
]
