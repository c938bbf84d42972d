"""Partitioned warehouse tables.

Tables are partitioned by date (Section 3.1.1: "partitioned (e.g.,
hourly or daily) offline datasets").  A training job selects data along
two dimensions (Section 5.1): a row filter — the set of partitions to
read — and a column filter — the feature projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..common.errors import SchemaError
from .row import Row
from .schema import TableSchema


@dataclass
class Partition:
    """One date partition of a table."""

    name: str
    rows: list[Row] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, row: Row) -> None:
        """Append a freshly generated sample to the partition."""
        self.rows.append(row)

    def nominal_bytes(self) -> int:
        """Uncompressed logical size of all rows in the partition."""
        return sum(row.nominal_bytes() for row in self.rows)


class Table:
    """A partitioned Hive-like table of training samples."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._partitions: dict[str, Partition] = {}

    @property
    def name(self) -> str:
        """Table name from the schema."""
        return self.schema.table_name

    def __len__(self) -> int:
        return len(self._partitions)

    def __contains__(self, name: str) -> bool:
        return name in self._partitions

    def partition_names(self) -> list[str]:
        """All partition names in insertion (chronological) order."""
        return list(self._partitions)

    def create_partition(self, name: str) -> Partition:
        """Create and return a new, empty partition."""
        if name in self._partitions:
            raise SchemaError(f"partition {name} already exists in {self.name}")
        partition = Partition(name)
        self._partitions[name] = partition
        return partition

    def partition(self, name: str) -> Partition:
        """Look up a partition by name."""
        try:
            return self._partitions[name]
        except KeyError:
            raise SchemaError(f"no partition {name} in table {self.name}") from None

    def drop_partition(self, name: str) -> None:
        """Remove a partition (retention / privacy reaping)."""
        self.partition(name)
        del self._partitions[name]

    def total_rows(self) -> int:
        """Number of samples across all partitions."""
        return sum(len(partition) for partition in self._partitions.values())

    def nominal_bytes(self) -> int:
        """Uncompressed logical size of the whole table."""
        return sum(partition.nominal_bytes() for partition in self._partitions.values())

    def scan(
        self,
        partitions: Iterable[str] | None = None,
        feature_ids: set[int] | None = None,
    ) -> Iterator[Row]:
        """Iterate samples with the job's row and column filters applied.

        *partitions* is the row filter (None = all partitions) and
        *feature_ids* the column filter (None = every feature).
        """
        names = list(partitions) if partitions is not None else self.partition_names()
        for name in names:
            for row in self.partition(name).rows:
                yield row.project(feature_ids) if feature_ids is not None else row
