"""Differential tests: the vectorized ops against their per-row oracles."""

import numpy as np
from hypothesis import given, strategies as st

from repro.transforms import (
    Bucketize,
    DenseColumn,
    FeatureBatch,
    FirstX,
    Onehot,
    SparseColumn,
    splitmix64,
)

from .oracles import MASK64, buckets_from_lists, firstx_per_row, splitmix64_int

FID = 1
ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def ragged_columns(draw):
    """Ragged ID lists — empty rows and the zero-row batch included —
    with or without score weights."""
    lists = draw(st.lists(st.lists(ids, max_size=9), max_size=12))
    weights = None
    if draw(st.booleans()):
        weights = [
            draw(
                st.lists(
                    st.floats(0, 1, width=32), min_size=len(row), max_size=len(row)
                )
            )
            for row in lists
        ]
    return SparseColumn.from_lists(lists, weights)


def batch_of(column) -> FeatureBatch:
    batch = FeatureBatch(labels=np.zeros(len(column), dtype=np.float32))
    batch.add_column(FID, column)
    return batch


def assert_same_column(actual: SparseColumn, expected: SparseColumn) -> None:
    for name in ("offsets", "values", "weights"):
        got, want = getattr(actual, name), getattr(expected, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestFirstX:
    # x = 0 keeps nothing; x above 9 exceeds the longest possible row.
    @given(column=ragged_columns(), x=st.integers(min_value=0, max_value=12))
    def test_matches_per_row_loop(self, column, x):
        result = FirstX(FID, x).apply(batch_of(column))
        assert_same_column(result, firstx_per_row(column, x))

    def test_result_does_not_alias_its_input(self):
        column = SparseColumn.from_lists([[1, 2, 3], [4]], [[0.1, 0.2, 0.3], [0.4]])
        result = FirstX(FID, 8).apply(batch_of(column))
        result.values[:] = -1
        result.weights[:] = -1.0
        assert column.to_lists() == [[1, 2, 3], [4]]
        assert column.weights[0] == np.float32(0.1)


dense_rows = st.lists(
    st.tuples(
        st.floats(-10, 10, width=32) | st.sampled_from([-1.0, 0.0, 1.0]),
        st.booleans(),
    ),
    max_size=20,
)
border_lists = st.lists(st.floats(-5, 5), min_size=1, max_size=6, unique=True).map(
    sorted
)


class TestDenseBucketing:
    @given(rows=dense_rows, borders=border_lists)
    def test_bucketize_and_onehot_match_from_lists(self, rows, borders):
        values = np.array([value for value, _ in rows], dtype=np.float32)
        presence = np.array([present for _, present in rows], dtype=bool)
        batch = batch_of(DenseColumn(values, presence))
        expected = buckets_from_lists(borders, values, presence)
        assert_same_column(Bucketize(FID, borders).apply(batch), expected)
        assert_same_column(Onehot(FID, borders).apply(batch), expected)


class TestSplitmix64:
    @given(st.lists(ids, max_size=16))
    def test_matches_python_int_reference(self, values):
        array = np.array(values, dtype=np.int64)
        before = array.copy()
        hashed = splitmix64(array)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [splitmix64_int(v & MASK64) for v in values]
        assert np.array_equal(array, before)  # mixed in a copy, never the input

    def test_unsigned_input_is_not_mixed_in_place(self):
        array = np.array([0, 1, MASK64], dtype=np.uint64)
        hashed = splitmix64(array)
        assert array.tolist() == [0, 1, MASK64]
        assert hashed.tolist() == [splitmix64_int(v) for v in (0, 1, MASK64)]
