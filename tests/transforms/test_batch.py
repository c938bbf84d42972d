"""Columnar batch representation."""

import numpy as np
import pytest

from repro.common.errors import TransformError
from repro.transforms import DenseColumn, FeatureBatch, SparseColumn
from repro.warehouse import Row

from .oracles import column_lists


class TestDenseColumn:
    def test_alignment_enforced(self):
        with pytest.raises(TransformError):
            DenseColumn(np.zeros(3), np.ones(2, dtype=bool))

    def test_arrays_take_their_dtypes(self):
        column = DenseColumn([1, 2], [1, 0])
        assert column.values.dtype == np.float32
        assert column.presence.dtype == bool
        assert column.presence.tolist() == [True, False]

    def test_rows_are_views(self):
        column = DenseColumn(np.arange(5, dtype=np.float32), np.ones(5, dtype=bool))
        part = column.rows(1, 4)
        assert part.values.tolist() == [1.0, 2.0, 3.0] and len(part) == 3
        assert np.shares_memory(part.values, column.values)
        assert np.shares_memory(part.presence, column.presence)

class TestSparseColumn:
    def test_from_lists_round_trip(self):
        lists = [[1, 2], [], [3]]
        column = SparseColumn.from_lists(lists)
        assert column_lists(column) == lists
        assert len(column) == 3

    def test_lengths(self):
        column = SparseColumn.from_lists([[1, 2, 3], [], [4]])
        assert column.lengths().tolist() == [3, 0, 1]

    def test_weights_parallel(self):
        column = SparseColumn.from_lists([[1, 2]], [[0.5, 0.7]])
        assert column.weights.tolist() == pytest.approx([0.5, 0.7])

    def test_invalid_offsets_rejected(self):
        with pytest.raises(TransformError):
            SparseColumn(np.array([0, 2]), np.array([1]))  # end != len(values)
        with pytest.raises(TransformError):
            SparseColumn(np.array([1, 2]), np.array([1, 2]))  # start != 0
        with pytest.raises(TransformError):
            SparseColumn(np.array([0, 2, 1]), np.array([1, 2]))  # decreasing

    @pytest.mark.parametrize("start, stop", [(0, 4), (1, 3), (2, 2), (3, 4)])
    def test_rows_rebase_the_offsets(self, start, stop):
        lists = [[1, 2], [], [3, 4, 5], [6]]
        weights = [[0.5 * v for v in ids] for ids in lists]
        part = SparseColumn.from_lists(lists, weights).rows(start, stop)
        assert column_lists(part) == lists[start:stop]
        assert part.offsets[0] == 0 and len(part) == stop - start
        assert part.weights.tolist() == pytest.approx(
            [w for ws in weights[start:stop] for w in ws]
        )

    def test_rows_share_the_flat_arrays(self):
        column = SparseColumn.from_lists([[1, 2], [3], [4, 5]])
        part = column.rows(1, 3)
        assert np.shares_memory(part.values, column.values)

    def test_from_optional_holds_one_id_where_present(self):
        column = SparseColumn.from_optional(
            np.array([7, 8, 9], dtype=np.int64), np.array([True, False, True])
        )
        assert column_lists(column) == [[7], [], [9]]

    def test_with_values_shares_the_offsets(self):
        column = SparseColumn.from_lists([[1, 2], [3]])
        mapped = column.with_values(column.values * 10, None)
        assert mapped.offsets is column.offsets
        assert column_lists(mapped) == [[10, 20], [30]]

    def test_with_values_must_map_one_for_one(self):
        column = SparseColumn.from_lists([[1, 2], [3]])
        with pytest.raises(TransformError):
            column.with_values(column.values[:2], None)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(TransformError):
            SparseColumn(np.array([0, 2]), np.array([1, 2]), np.array([0.1]))

class TestFeatureBatch:
    def test_column_length_must_match_rows(self):
        batch = FeatureBatch(labels=np.zeros(3))
        with pytest.raises(TransformError):
            batch.add_column(1, SparseColumn.from_lists([[1]]))

    def test_typed_accessors(self):
        batch = FeatureBatch(labels=np.zeros(2))
        batch.add_column(1, DenseColumn(np.zeros(2), np.ones(2, dtype=bool)))
        batch.add_column(2, SparseColumn.from_lists([[1], [2]]))
        assert isinstance(batch.dense(1), DenseColumn)
        assert isinstance(batch.sparse(2), SparseColumn)
        with pytest.raises(TransformError):
            batch.dense(2)
        with pytest.raises(TransformError):
            batch.sparse(1)
        with pytest.raises(TransformError):
            batch.column(99)

    def test_from_rows_materializes_all_types(self):
        rows = [
            Row(label=1.0, dense={1: 0.5}, sparse={2: [10, 11]}, scores={2: [0.1, 0.2]}),
            Row(label=0.0, dense={}, sparse={2: [12]}, scores={2: [0.3]}),
        ]
        batch = FeatureBatch.from_rows(rows)
        assert batch.n_rows == 2
        assert batch.dense(1).presence.tolist() == [True, False]
        assert column_lists(batch.sparse(2)) == [[10, 11], [12]]
        assert batch.sparse(2).weights is not None

    def test_from_rows_takes_every_feature_any_row_logged(self):
        rows = [
            Row(label=0.0, dense={4: 1.0}),
            Row(label=1.0, sparse={2: [5]}),
            Row(label=0.0, sparse={9: [6]}, scores={9: [0.5]}),
        ]
        batch = FeatureBatch.from_rows(rows)
        assert sorted(batch.columns) == [2, 4, 9]
        assert batch.dense(4).presence.tolist() == [True, False, False]
        assert column_lists(batch.sparse(2)) == [[], [5], []]
        assert batch.sparse(9).weights.tolist() == [0.5]
        assert batch.labels.tolist() == [0.0, 1.0, 0.0]

    def test_from_rows_with_projection(self):
        rows = [Row(label=0.0, dense={1: 1.0, 3: 2.0})]
        batch = FeatureBatch.from_rows(rows, feature_ids=[1])
        assert 3 not in batch.columns

    def test_from_rows_empty_rejected(self):
        with pytest.raises(TransformError):
            FeatureBatch.from_rows([])
