"""Synthetic sample generation: statistics match the declared profile."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.warehouse import (
    DatasetProfile,
    FeatureType,
    SampleGenerator,
    Table,
    measured_avg_sparse_length,
    measured_coverage,
)


def make_generator(seed=0, **overrides):
    defaults = dict(n_dense=20, n_sparse=10, n_scored=2,
                    avg_coverage=0.5, avg_sparse_length=8.0)
    defaults.update(overrides)
    return SampleGenerator(DatasetProfile(**defaults), seed=seed)


class TestProfile:
    def test_rejects_bad_coverage(self):
        with pytest.raises(ConfigError):
            DatasetProfile(n_dense=1, n_sparse=1, avg_coverage=0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigError):
            DatasetProfile(n_dense=-1, n_sparse=1)

    def test_total_features(self):
        profile = DatasetProfile(n_dense=3, n_sparse=4, n_scored=2)
        assert profile.total_features == 9


class TestSchemaGeneration:
    def test_feature_counts_by_type(self):
        gen = make_generator()
        schema = gen.build_schema("t")
        assert len(schema.features_of_type(FeatureType.DENSE)) == 20
        assert len(schema.features_of_type(FeatureType.SPARSE)) == 10
        assert len(schema.features_of_type(FeatureType.SCORED_SPARSE)) == 2

    def test_id_ranges_disjoint(self):
        schema = make_generator().build_schema("t")
        dense_ids = {s.feature_id for s in schema.features_of_type(FeatureType.DENSE)}
        sparse_ids = {s.feature_id for s in schema.features_of_type(FeatureType.SPARSE)}
        assert not dense_ids & sparse_ids

    def test_coverage_mean_near_target(self):
        gen = make_generator(n_dense=400, n_sparse=0, n_scored=0, avg_coverage=0.45)
        schema = gen.build_schema("t")
        coverages = [s.coverage for s in schema]
        assert np.mean(coverages) == pytest.approx(0.45, abs=0.05)


class TestRowGeneration:
    def test_rows_respect_schema_features(self):
        gen = make_generator()
        schema = gen.build_schema("t")
        row = gen.generate_row(schema)
        valid_ids = set(schema.feature_ids())
        assert row.feature_ids() <= valid_ids

    def test_scored_features_have_parallel_weights(self):
        gen = make_generator(n_scored=5, avg_coverage=0.95)
        schema = gen.build_schema("t")
        for _ in range(20):
            row = gen.generate_row(schema)
            for fid, weights in row.scores.items():
                assert len(weights) == len(row.sparse[fid])

    def test_deterministic_under_seed(self):
        gen_a = make_generator(seed=42)
        schema_a = gen_a.build_schema("t")
        rows_a = [gen_a.generate_row(schema_a) for _ in range(5)]
        gen_b = make_generator(seed=42)
        schema_b = gen_b.build_schema("t")
        rows_b = [gen_b.generate_row(schema_b) for _ in range(5)]
        for a, b in zip(rows_a, rows_b):
            assert a.label == b.label
            assert a.sparse == b.sparse

    def test_bulk_matches_statistics_of_scalar_path(self):
        gen = make_generator(seed=1)
        schema = gen.build_schema("t")
        bulk = gen.generate_rows(schema, 400)
        fid = schema.features_of_type(FeatureType.SPARSE)[0].feature_id
        spec_coverage = gen._coverages[fid]
        measured = sum(1 for r in bulk if fid in r.sparse) / len(bulk)
        assert measured == pytest.approx(spec_coverage, abs=0.12)

    def test_bulk_rows_share_no_container(self):
        # The write path hands a row's maps and sequences on by
        # reference, so two rows must never alias one another's.
        gen = make_generator(seed=2, n_scored=3, avg_coverage=0.9)
        schema = gen.build_schema("t")
        rows = gen.generate_rows(schema, 120) + gen.generate_rows(schema, 40)
        containers = []
        for row in rows:
            containers += [row.dense, row.sparse, row.scores]
            containers += [*row.sparse.values(), *row.scores.values()]
        assert all(type(c) in (dict, list) for c in containers)
        assert len({id(c) for c in containers}) == len(containers)

    def test_populate_table(self):
        gen = make_generator()
        schema = gen.build_schema("t")
        table = Table(schema)
        gen.populate_table(table, ["p0", "p1"], 50)
        assert table.total_rows() == 100
        assert table.partition_names() == ["p0", "p1"]


class TestMeasuredStatistics:
    def test_measured_coverage(self):
        gen = make_generator(seed=3, avg_coverage=0.6)
        schema = gen.build_schema("t")
        table = Table(schema)
        gen.populate_table(table, ["p0"], 500)
        fid = schema.feature_ids()[0]
        expected = gen._coverages[fid]
        assert measured_coverage(table, fid) == pytest.approx(expected, abs=0.08)

    def test_measured_sparse_length(self):
        gen = make_generator(seed=4, avg_sparse_length=12.0, avg_coverage=0.9)
        schema = gen.build_schema("t")
        table = Table(schema)
        gen.populate_table(table, ["p0"], 500)
        fid = schema.features_of_type(FeatureType.SPARSE)[0].feature_id
        expected = gen._lengths[fid]
        assert measured_avg_sparse_length(table, fid) == pytest.approx(
            expected, rel=0.25
        )

    def test_coverage_of_empty_table_raises(self):
        gen = make_generator()
        schema = gen.build_schema("t")
        with pytest.raises(ConfigError):
            measured_coverage(Table(schema), schema.feature_ids()[0])
