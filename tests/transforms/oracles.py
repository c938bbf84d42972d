"""Reference implementations the vectorized ops are tested against.

These are the per-row bodies that ``repro.transforms`` shipped before
the worker hot path was vectorized, kept verbatim as oracles, plus a
pure-Python-int splitmix64.
"""

import numpy as np

from repro.transforms import SparseColumn

MASK64 = (1 << 64) - 1


def firstx_per_row(column: SparseColumn, x: int) -> SparseColumn:
    """``FirstX.apply`` with one ``np.arange`` per row."""
    lengths = np.minimum(column.lengths(), x)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    keep = np.concatenate(
        [
            np.arange(column.offsets[i], column.offsets[i] + lengths[i])
            for i in range(len(column))
        ]
    ).astype(np.int64) if len(column) else np.empty(0, dtype=np.int64)
    values = column.values[keep]
    weights = None if column.weights is None else column.weights[keep]
    return SparseColumn(offsets, values, weights)


def buckets_from_lists(borders, values, presence) -> SparseColumn:
    """Dense ``Bucketize``/``Onehot``: a Python list per row, then packed."""
    buckets = np.searchsorted(np.asarray(borders, dtype=np.float64), values, side="right")
    lists = [
        [int(bucket)] if present else []
        for bucket, present in zip(buckets, presence)
    ]
    return SparseColumn.from_lists(lists)


def splitmix64_int(value: int) -> int:
    """The splitmix64 finalizer on one Python int, reduced mod 2**64."""
    x = (value + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)
