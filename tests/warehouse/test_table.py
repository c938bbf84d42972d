"""Partitioned tables, row/column filters, and the catalog."""

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
    def test_feature_ids_union(self):
        row = Row(label=0, dense={1: 1.0}, sparse={2: [1]}, scores={3: [0.5]})
        assert row.feature_ids() == {1, 2, 3}

    def test_has_feature(self):
        row = make_row()
        assert row.has_feature(1)
        assert row.has_feature(2)
        assert not row.has_feature(3)

    def test_project_filters_columns(self):
        row = make_row()
        projected = row.project({2})
        assert not projected.dense
        assert projected.sparse == {2: [7, 8, 9]}
        assert projected.label == row.label

    def test_project_copies_lists(self):
        row = make_row()
        projected = row.project({2})
        projected.sparse[2].append(99)
        assert row.sparse[2] == [7, 8, 9]

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

    def test_scan_row_filter(self):
        table = Table(make_schema())
        table.create_partition("p0").append(make_row(label=0.0))
        table.create_partition("p1").append(make_row(label=1.0))
        labels = [row.label for row in table.scan(partitions=["p1"])]
        assert labels == [1.0]

    def test_scan_column_filter(self):
        table = Table(make_schema())
        table.create_partition("p0").append(make_row())
        rows = list(table.scan(feature_ids={1}))
        assert rows[0].dense == {1: 0.5}
        assert rows[0].sparse == {}

    def test_scan_preserves_partition_order(self):
        table = Table(make_schema())
        for i in range(3):
            table.create_partition(f"p{i}").append(make_row(label=float(i)))
        labels = [row.label for row in table.scan()]
        assert labels == [0.0, 1.0, 2.0]

    def test_nominal_bytes_sum(self):
        table = Table(make_schema())
        table.create_partition("p0").append(make_row())
        assert table.nominal_bytes() == make_row().nominal_bytes()
