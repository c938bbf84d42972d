"""Schemas and the feature lifecycle."""

import pytest

from repro.common.errors import SchemaError
from repro.warehouse import FeatureSpec, FeatureStatus, FeatureType, TableSchema


def dense(fid, status=FeatureStatus.ACTIVE, coverage=0.5):
    return FeatureSpec(fid, f"d{fid}", FeatureType.DENSE, status, coverage=coverage)


def sparse(fid, status=FeatureStatus.ACTIVE, length=10.0):
    return FeatureSpec(
        fid, f"s{fid}", FeatureType.SPARSE, status, coverage=0.5, avg_sparse_length=length
    )


class TestFeatureSpec:
    def test_coverage_bounds(self):
        with pytest.raises(SchemaError):
            FeatureSpec(1, "x", FeatureType.DENSE, coverage=1.5)
        with pytest.raises(SchemaError):
            FeatureSpec(1, "x", FeatureType.DENSE, coverage=-0.1)

    def test_dense_cannot_have_sparse_length(self):
        with pytest.raises(SchemaError):
            FeatureSpec(1, "x", FeatureType.DENSE, avg_sparse_length=3.0)

    def test_negative_id_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSpec(-1, "x", FeatureType.DENSE)

    def test_with_status_returns_copy(self):
        spec = dense(1, FeatureStatus.BETA)
        promoted = spec.with_status(FeatureStatus.ACTIVE)
        assert spec.status is FeatureStatus.BETA
        assert promoted.status is FeatureStatus.ACTIVE
        assert promoted.feature_id == 1

    def test_beta_not_logged(self):
        assert not FeatureStatus.BETA.is_logged
        assert FeatureStatus.EXPERIMENTAL.is_logged
        assert FeatureStatus.ACTIVE.is_logged
        assert FeatureStatus.DEPRECATED.is_logged


class TestTableSchema:
    def test_add_and_get(self):
        schema = TableSchema("t")
        schema.add_feature(dense(7))
        assert schema.get(7).name == "d7"
        assert 7 in schema
        assert len(schema) == 1

    def test_duplicate_id_rejected(self):
        schema = TableSchema("t")
        schema.add_feature(dense(1))
        with pytest.raises(SchemaError):
            schema.add_feature(sparse(1))

    def test_unknown_feature_raises(self):
        with pytest.raises(SchemaError):
            TableSchema("t").get(99)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("")

    def test_iteration_sorted_by_id(self):
        schema = TableSchema("t")
        schema.add_feature(dense(5))
        schema.add_feature(dense(1))
        schema.add_feature(dense(3))
        assert [s.feature_id for s in schema] == [1, 3, 5]

    def test_remove_feature(self):
        schema = TableSchema("t")
        schema.add_feature(dense(1))
        schema.remove_feature(1)
        assert 1 not in schema
        with pytest.raises(SchemaError):
            schema.remove_feature(1)


class TestLifecycle:
    def test_status_transition(self):
        schema = TableSchema("t")
        schema.add_feature(dense(1, FeatureStatus.BETA))
        schema.set_status(1, FeatureStatus.EXPERIMENTAL)
        assert schema.get(1).status is FeatureStatus.EXPERIMENTAL

    def test_logged_features_excludes_beta(self):
        schema = TableSchema("t")
        schema.add_feature(dense(1, FeatureStatus.BETA))
        schema.add_feature(dense(2, FeatureStatus.EXPERIMENTAL))
        schema.add_feature(dense(3, FeatureStatus.ACTIVE))
        schema.add_feature(dense(4, FeatureStatus.DEPRECATED))
        assert [s.feature_id for s in schema.logged_features()] == [2, 3, 4]

    def test_status_counts_histogram(self):
        schema = TableSchema("t")
        schema.add_feature(dense(1, FeatureStatus.BETA))
        schema.add_feature(dense(2, FeatureStatus.BETA))
        schema.add_feature(dense(3, FeatureStatus.ACTIVE))
        counts = schema.status_counts()
        assert counts[FeatureStatus.BETA] == 2
        assert counts[FeatureStatus.ACTIVE] == 1
        assert counts[FeatureStatus.DEPRECATED] == 0
