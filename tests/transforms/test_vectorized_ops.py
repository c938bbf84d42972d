"""Differential tests: the vectorized ops against their per-row oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.transforms import (
    Bucketize,
    DenseColumn,
    Enumerate,
    FeatureBatch,
    FirstX,
    IdListTransform,
    MapId,
    NGram,
    Onehot,
    PositiveModulus,
    SigridHash,
    SparseColumn,
    splitmix64,
)

from .oracles import (
    MASK64,
    buckets_from_lists,
    enumerate_per_row,
    firstx_per_row,
    idlist_per_row,
    map_id_per_element,
    ngram_gather_per_position,
    ngram_hash_int,
    sigrid_hash_int,
    sigrid_hash_remainder,
    splitmix64_int,
)

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



# IDs that stress 64-bit wrap-around: the ends of the int64 range and
# their neighbours, small values of both signs, and anything between.
edge_ids = st.sampled_from(
    [0, 1, -1, 2**31, -(2**31), 2**62, 2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1]
) | ids
TABLE_SIZES = [1, 2, 3, 1_000_000, 2**31, 2**62]


def ragged_lists(max_rows=8, max_len=6, elements=edge_ids):
    return st.lists(st.lists(elements, max_size=max_len), max_size=max_rows)


@st.composite
def id_list_pairs(draw):
    """Two sparse columns over the same rows whose IDs come from one small
    drawn pool of edge IDs: duplicates within a row on either side,
    shared IDs across sides and rows, empty rows and the zero-row
    batch."""
    pool = draw(st.lists(edge_ids, min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(0, 8))
    row = st.lists(st.sampled_from(pool), max_size=7)
    left = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    right = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return SparseColumn.from_lists(left), SparseColumn.from_lists(right)


class TestIdListTransform:
    @given(pair=id_list_pairs())
    def test_matches_per_row_set_loop(self, pair):
        left, right = pair
        batch = FeatureBatch(labels=np.zeros(len(left), dtype=np.float32))
        batch.add_column(1, left)
        batch.add_column(2, right)
        result = IdListTransform(1, 2).apply(batch)
        assert_same_column(result, idlist_per_row(left, right))

    # Hand-written expectations, independent of the oracle: each row
    # keeps the left IDs its right list holds, once, in left order.
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ([[3, 1, 3, 2]], [[2, 3]], [[3, 2]]),
            ([[5, 5, 5], [6]], [[5, 5], [6, 6]], [[5], [6]]),
            ([[], [1], []], [[1], [], []], [[], [], []]),
            ([[1, 2], [3]], [[3], [1, 2]], [[], []]),
            ([[-1, -2, -1, 7]], [[-2, -1]], [[-1, -2]]),
            (
                [[2**63 - 1, 0, -(2**63), 2**63 - 1]],
                [[-(2**63), 2**63 - 1]],
                [[2**63 - 1, -(2**63)]],
            ),
            ([], [], []),
        ],
        ids=[
            "first-occurrence-order",
            "duplicates-both-sides",
            "empty-rows",
            "rows-never-mix",
            "negative-ids",
            "int64-extremes",
            "no-rows",
        ],
    )
    def test_pinned_cases(self, left, right, expected):
        batch = FeatureBatch(labels=np.zeros(len(left), dtype=np.float32))
        batch.add_column(1, SparseColumn.from_lists(left))
        batch.add_column(2, SparseColumn.from_lists(right))
        result = IdListTransform(1, 2).apply(batch)
        assert [list(map(int, result.row(i))) for i in range(len(left))] == expected
        assert_same_column(result, SparseColumn.from_lists(expected))


class TestNGram:
    # 1-3 inputs over the same rows; rows of 0..6 IDs against n of 1..4
    # cover empty rows, rows shorter than n, and (with every list empty,
    # or no rows at all) the batch that yields no window.
    @given(
        rows=st.integers(0, 8).flatmap(
            lambda n_rows: st.lists(
                st.lists(
                    st.lists(edge_ids, max_size=6), min_size=n_rows, max_size=n_rows
                ),
                min_size=1,
                max_size=3,
            )
        ),
        n=st.integers(1, 4),
    )
    def test_matches_gather_per_position(self, rows, n):
        columns = [SparseColumn.from_lists(lists) for lists in rows]
        batch = FeatureBatch(labels=np.zeros(len(columns[0]), dtype=np.float32))
        for fid, column in enumerate(columns):
            batch.add_column(fid, column)
        result = NGram(list(range(len(columns))), n=n).apply(batch)
        assert_same_column(result, ngram_gather_per_position(columns, n))
        # ... and both are the fold over each row's concatenated IDs.
        expected = []
        for row in zip(*rows):
            joined = [value for ids in row for value in ids]
            expected.append(
                [ngram_hash_int(joined[k : k + n]) for k in range(len(joined) - n + 1)]
            )
        assert result.to_lists() == expected

    def test_all_empty_batch_and_short_rows(self):
        empty = SparseColumn.from_lists([[], [], []])
        assert NGram([FID], n=2).apply(batch_of(empty)).to_lists() == [[], [], []]
        short = SparseColumn.from_lists([[], [7], [], [8, 9], [1]])
        result = NGram([FID], n=3).apply(batch_of(short))
        assert result.to_lists() == [[], [], [], [], []]
        result = NGram([FID], n=2).apply(batch_of(short))
        assert result.to_lists() == [[], [], [], [ngram_hash_int([8, 9])], []]


class TestHashAndModulus:
    @given(
        column=ragged_columns(),
        table_size=st.sampled_from(TABLE_SIZES),
        salt=st.sampled_from([0, 1, -1, 12345, 2**63 - 1, -(2**63)]),
    )
    def test_sigridhash_matches_remainder_body(self, column, table_size, salt):
        result = SigridHash(FID, table_size, salt).apply(batch_of(column))
        assert_same_column(result, sigrid_hash_remainder(column, table_size, salt))

    @given(
        lists=ragged_lists(),
        table_size=st.sampled_from(TABLE_SIZES),
        salt=st.integers(-(2**63), 2**63 - 1),
    )
    def test_sigridhash_matches_python_int_arithmetic(self, lists, table_size, salt):
        column = SparseColumn.from_lists(lists)
        result = SigridHash(FID, table_size, salt).apply(batch_of(column))
        assert result.to_lists() == [
            [sigrid_hash_int(v, table_size, salt) for v in ids] for ids in lists
        ]

    @given(lists=ragged_lists(), modulus=st.sampled_from(TABLE_SIZES + [2**63 - 1]))
    def test_positive_modulus_matches_python_int_arithmetic(self, lists, modulus):
        column = SparseColumn.from_lists(lists)
        result = PositiveModulus(FID, modulus).apply(batch_of(column))
        assert result.values.dtype == np.int64
        assert result.to_lists() == [[v % modulus for v in ids] for ids in lists]


class TestEnumerateAndMapId:
    @given(column=ragged_columns())
    def test_enumerate_matches_per_row_loop(self, column):
        result = Enumerate(FID).apply(batch_of(column))
        assert_same_column(result, enumerate_per_row(column))

    # A few keys so generated IDs hit, miss below, between and above them.
    @given(
        column=ragged_columns(),
        extra=ragged_lists(elements=st.integers(-3, 6)),
        mapping=st.dictionaries(
            st.integers(-3, 6) | edge_ids, st.integers(-(2**63), 2**63 - 1), max_size=6
        ),
        default=st.integers(-(2**63), 2**63 - 1),
    )
    def test_mapid_matches_per_element_lookup(self, column, extra, mapping, default):
        for candidate in (column, SparseColumn.from_lists(extra)):
            result = MapId(FID, mapping, default).apply(batch_of(candidate))
            assert_same_column(
                result, map_id_per_element(candidate, mapping, default)
            )

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
