"""Partitioned tables, scans, and the catalog."""

import pytest

from repro.common.errors import SchemaError
from repro.warehouse import (
    FeatureSpec,
    FeatureType,
    Row,
    Table,
    TableSchema,
)


def make_schema():
    schema = TableSchema("clicks")
    schema.add_feature(FeatureSpec(1, "d1", FeatureType.DENSE))
    schema.add_feature(FeatureSpec(2, "s2", FeatureType.SPARSE, avg_sparse_length=3))
    return schema


def make_row(label=1.0):
    return Row(label=label, dense={1: 0.5}, sparse={2: [7, 8, 9]})


class TestRow:
    def test_has_feature(self):
        row = make_row()
        assert row.has_feature(1)
        assert row.has_feature(2)
        assert not row.has_feature(3)

    def test_nominal_bytes_scale_with_content(self):
        small = Row(label=0, sparse={2: [1]})
        large = Row(label=0, sparse={2: list(range(100))})
        assert large.nominal_bytes() > small.nominal_bytes()


class TestTable:
    def test_partition_lifecycle(self):
        table = Table(make_schema())
        table.create_partition("p0")
        assert table.partition_names() == ["p0"]
        table.drop_partition("p0")
        assert table.partition_names() == []

    def test_membership_by_partition_name(self):
        table = Table(make_schema())
        table.create_partition("p0")
        assert "p0" in table
        assert "p1" not in table
        table.drop_partition("p0")
        assert "p0" not in table

    def test_duplicate_partition_rejected(self):
        table = Table(make_schema())
        table.create_partition("p0")
        with pytest.raises(SchemaError):
            table.create_partition("p0")

    def test_unknown_partition_raises(self):
        with pytest.raises(SchemaError):
            Table(make_schema()).partition("nope")

    def test_row_counting(self):
        table = Table(make_schema())
        part = table.create_partition("p0")
        part.append(make_row())
        part.append(make_row())
        table.create_partition("p1").append(make_row())
        assert table.total_rows() == 3

    def test_scan_preserves_partition_order(self):
        table = Table(make_schema())
        for i in range(3):
            table.create_partition(f"p{i}").append(make_row(label=float(i)))
        labels = [row.label for row in table.scan()]
        assert labels == [0.0, 1.0, 2.0]

    def test_scan_of_an_empty_table_yields_nothing(self):
        table = Table(make_schema())
        assert list(table.scan()) == []
        table.create_partition("p0")
        assert list(table.scan()) == []

    def test_scan_skips_dropped_partitions(self):
        table = Table(make_schema())
        for i in range(3):
            table.create_partition(f"p{i}").append(make_row(label=float(i)))
        table.drop_partition("p1")
        assert [row.label for row in table.scan()] == [0.0, 2.0]

    def test_partition_nominal_bytes_sum_its_rows(self):
        part = Table(make_schema()).create_partition("p0")
        rows = [make_row(), Row(label=0, sparse={2: list(range(50))})]
        for row in rows:
            part.append(row)
        assert part.nominal_bytes() == sum(row.nominal_bytes() for row in rows)
