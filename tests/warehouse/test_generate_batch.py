"""Bulk generation hands over columns; the rows read as they always did.

``generate_batch`` keeps the draws as arrays and ``generate_rows`` cuts
views out of them.  The oracle is the body ``generate_rows`` had when it
exploded every vector into hand-built rows: both must produce the same
rows, digit for digit and container for container, and leave the RNG in
the same state, so nothing downstream of a seed can tell them apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.warehouse import DatasetProfile, SampleGenerator, Table
from repro.warehouse.row import SampleBatch

from .oracles import logged_features, oracle_generate_rows

profiles = st.builds(
    DatasetProfile,
    n_dense=st.integers(0, 4),
    n_sparse=st.integers(0, 4),
    n_scored=st.integers(0, 4),
    # Low means leave some features unlogged by a whole batch.
    avg_coverage=st.floats(0.01, 0.99),
    avg_sparse_length=st.floats(1.0, 9.0),
    id_vocab_size=st.sampled_from((3, 100_000, 2**40)),
)
row_counts = st.sampled_from((0, 1, 2, 17, 300))
seeds = st.integers(0, 2**32 - 1)


def twins(profile, seed):
    """Two generators in the same state, and the schema one of them drew."""
    subject, oracle = SampleGenerator(profile, seed), SampleGenerator(profile, seed)
    schema = subject.build_schema("twin")
    oracle.build_schema("twin")
    return subject, oracle, schema


def content(rows):
    return [repr((row.label, row.dense, row.sparse, row.scores)) for row in rows]


def rng_state(generator):
    return generator._rng.bit_generator.state


class TestSameRowsSameDraws:
    @given(profiles, seeds, row_counts, row_counts)
    @settings(max_examples=120, deadline=None)
    def test_generate_rows_is_the_oracle_row_by_row(self, profile, seed, n, again):
        subject, oracle, schema = twins(profile, seed)
        for count in (n, again):  # the second call starts where the first ended
            assert content(subject.generate_rows(schema, count)) == content(
                oracle_generate_rows(oracle, schema, count)
            )
            assert rng_state(subject) == rng_state(oracle)

    @given(profiles, seeds, st.integers(0, 40), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_iter_rows_draws_chunk_sized_batches(self, profile, seed, n, chunk):
        subject, oracle, schema = twins(profile, seed)
        expected = []
        for lo in range(0, n, chunk):
            expected += oracle_generate_rows(oracle, schema, min(chunk, n - lo))
        assert content(subject.iter_rows(schema, n, chunk)) == content(expected)
        assert rng_state(subject) == rng_state(oracle)

    @given(profiles, seeds, row_counts)
    @settings(max_examples=40, deadline=None)
    def test_batch_holds_the_draws_as_columns(self, profile, seed, n):
        subject, _, schema = twins(profile, seed)
        batch = subject.generate_batch(schema, n)
        assert isinstance(batch, SampleBatch) and len(batch.labels) == n
        assert not batch.maps_built
        logged = [spec.feature_id for spec in schema.logged_features()]
        assert list(batch.columns) == [fid for fid in logged if fid in batch.columns]
        for column in batch.columns.values():
            assert column.rows.size and (np.diff(column.rows) > 0).all()
            if column.values is not None:
                assert column.values.dtype == np.float64
                assert len(column.values) == len(column.rows)
                continue
            assert column.lengths.dtype == column.ids.dtype == np.int64
            assert len(column.lengths) == len(column.rows)
            assert column.starts.tolist() == [0, *np.cumsum(column.lengths)]
            assert len(column.ids) == column.starts[-1]
            if column.scores is not None:
                assert column.scores.dtype == np.float64
                assert len(column.scores) == len(column.ids)
        assert not batch.maps_built  # looking at columns reads no map


class TestRowCounts:
    @pytest.fixture
    def generator(self):
        return SampleGenerator(DatasetProfile(n_dense=2, n_sparse=2), seed=1)

    def test_negative_counts_are_refused_everywhere(self, generator):
        schema = generator.build_schema("t")
        before = rng_state(generator)
        with pytest.raises(ConfigError):
            generator.generate_batch(schema, -3)
        with pytest.raises(ConfigError):
            generator.generate_rows(schema, -3)
        with pytest.raises(ConfigError):
            list(generator.iter_rows(schema, -3))
        table = Table(schema)
        with pytest.raises(ConfigError):
            generator.populate_table(table, ["p0"], -3)
        assert len(table) == 0  # refused before any partition exists
        assert rng_state(generator) == before

    def test_zero_rows_is_an_empty_batch(self, generator):
        schema = generator.build_schema("t")
        batch = generator.generate_batch(schema, 0)
        assert len(batch.labels) == 0 and not batch.columns and batch.rows() == []
        assert generator.generate_rows(schema, 0) == []
        assert list(generator.iter_rows(schema, 0)) == []


class TestFullCoverage:
    def test_every_feature_has_coverage_one_and_every_row_logs_it(self):
        profile = DatasetProfile(n_dense=3, n_sparse=2, n_scored=2, avg_coverage=1.0)
        generator = SampleGenerator(profile, seed=5)
        schema = generator.build_schema("full")
        assert [spec.coverage for spec in schema] == [1.0] * 7
        rows = generator.generate_rows(schema, 200)
        everything = set(schema.feature_ids())
        assert all(logged_features(row) == everything for row in rows)

    def test_partial_coverage_still_draws_from_the_beta(self):
        # The full-coverage shortcut must not shift any other profile's draws.
        profile = DatasetProfile(n_dense=3, n_sparse=2, avg_coverage=0.99)
        schema = SampleGenerator(profile, seed=5).build_schema("nearly")
        assert any(spec.coverage < 1.0 for spec in schema)
