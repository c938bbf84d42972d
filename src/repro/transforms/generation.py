"""Feature generation ops: Cartesian, NGram, Bucketize, GetLocalHour, Sampling.

Feature generation derives new features from raw ones and dominates
transformation compute (~75% of cycles, Section 6.4) — Cartesian and
NGram in particular expand the data they touch.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TransformError
from .base import OpClass, OpCost, Transform, register
from .batch import Column, DenseColumn, FeatureBatch, SparseColumn
from .sparse import splitmix64


@register
class Cartesian(Transform):
    """Cartesian product of two sparse features' ID lists per row.

    Pair (a, b) is combined with a mixing hash so the output remains a
    flat categorical space.  ``max_pairs`` caps the per-row blowup, as
    production pipelines must.
    """

    name = "Cartesian"
    op_class = OpClass.FEATURE_GENERATION
    cost = OpCost(cycles_per_element=40.0, mem_bytes_per_element=96.0)

    def __init__(self, left_id: int, right_id: int, max_pairs: int = 256) -> None:
        if max_pairs <= 0:
            raise TransformError("max_pairs must be positive")
        self._left_id = left_id
        self._right_id = right_id
        self.max_pairs = max_pairs

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._left_id, self._right_id)

    def apply(self, batch: FeatureBatch) -> Column:
        left = batch.sparse(self._left_id)
        right = batch.sparse(self._right_id)
        left_lengths = left.lengths()
        right_lengths = right.lengths()
        counts = np.minimum(left_lengths * right_lengths, self.max_pairs)
        offsets = np.zeros(len(left) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return SparseColumn(offsets, np.empty(0, dtype=np.int64))
        # Pair k of a row maps to (a[k // |b|], b[k % |b|]) — the
        # meshgrid walk order — computed flat across every row at once.
        k = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
        right_size = np.repeat(right_lengths, counts)
        a = left.values[np.repeat(left.offsets[:-1], counts) + k // right_size]
        b = right.values[np.repeat(right.offsets[:-1], counts) + k % right_size]
        mixed = splitmix64(a * np.int64(1_000_003) + b)
        mixed >>= np.uint64(1)
        return SparseColumn(offsets, mixed.view(np.int64))


@register
class NGram(Transform):
    """N-grams over the concatenation of one or more sparse features.

    Consecutive windows of *n* IDs are hashed into single IDs; this is
    the "n-gram between multiple sparse features" of Table 11.
    """

    name = "NGram"
    op_class = OpClass.FEATURE_GENERATION
    cost = OpCost(cycles_per_element=30.0, mem_bytes_per_element=72.0)

    def __init__(self, input_ids: list[int], n: int = 2) -> None:
        if not input_ids:
            raise TransformError("NGram needs at least one input feature")
        if n < 1:
            raise TransformError("n must be at least 1")
        self._input_ids = tuple(input_ids)
        self.n = n

    @property
    def input_ids(self) -> tuple[int, ...]:
        return self._input_ids

    def apply(self, batch: FeatureBatch) -> Column:
        columns = [batch.sparse(fid) for fid in self._input_ids]
        sequence, seq_offsets = self._concatenate_rows(columns)
        tail = self.n - 1  # positions at the end of a row that start no window
        windows = np.maximum(seq_offsets[1:] - seq_offsets[:-1] - tail, 0)
        offsets = np.zeros(len(windows) + 1, dtype=np.int64)
        np.cumsum(windows, out=offsets[1:])
        if offsets[-1] == 0:
            return SparseColumn(offsets, np.empty(0, dtype=np.int64))
        # Every position starts a window, its row permitting: fold the n
        # positions over contiguous shifted slices of the whole sequence
        # and drop the windows that ran into the next row afterwards.
        span = len(sequence) - tail
        ids = sequence.view(np.uint64)
        mixed = splitmix64(ids[:span])
        for j in range(1, self.n):
            mixed *= np.uint64(31)
            mixed += ids[j : j + span]
            mixed = splitmix64(mixed)
        mixed >>= np.uint64(1)
        values = mixed.view(np.int64)
        if tail:
            # keep[p + tail]: position p starts a window.  The pad is for
            # rows shorter than the tail, which mark an earlier row's tail.
            keep = np.ones(len(sequence) + tail, dtype=bool)
            for back in range(tail):
                keep[seq_offsets[1:] + back] = False
            values = values[keep[tail : tail + span]]
        return SparseColumn(offsets, values)

    @staticmethod
    def _concatenate_rows(columns: list[SparseColumn]) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise concatenation of several sparse columns, flat.

        Returns ``(values, offsets)`` where each row's span holds its
        IDs from every input column in column order.
        """
        if len(columns) == 1:
            return columns[0].values, columns[0].offsets
        n_rows = len(columns[0])
        runs = np.empty((n_rows, len(columns)), dtype=np.int64)
        seq_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        for index, column in enumerate(columns):
            np.subtract(column.offsets[1:], column.offsets[:-1], out=runs[:, index])
            seq_offsets += column.offsets
        # Which column each slot of the result takes from: row 0's run
        # from column 0, row 0's run from column 1, ..., then row 1's.
        source = np.tile(np.arange(len(columns), dtype=np.int8), n_rows)
        source = np.repeat(source, runs.ravel())
        values = np.empty(len(source), dtype=np.int64)
        for index, column in enumerate(columns):
            values[source == index] = column.values
        return values, seq_offsets


@register
class Bucketize(Transform):
    """Shard a feature into buckets based on sorted borders.

    Accepts a dense input (bucket of the value) or a sparse input
    (bucket of each ID) — production uses both spellings.
    """

    name = "Bucketize"
    op_class = OpClass.FEATURE_GENERATION
    cost = OpCost(cycles_per_element=18.0, mem_bytes_per_element=48.0)

    def __init__(self, input_id: int, borders: list[float]) -> None:
        if not borders or sorted(borders) != list(borders):
            raise TransformError("borders must be a non-empty sorted list")
        self._input_id = input_id
        self.borders = np.asarray(borders, dtype=np.float64)

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def apply(self, batch: FeatureBatch) -> Column:
        column = batch.column(self._input_id)
        buckets = np.searchsorted(self.borders, column.values, side="right")
        if isinstance(column, DenseColumn):
            return SparseColumn.from_optional(buckets, column.presence)
        return column.with_values(buckets.astype(np.int64, copy=False), None)


@register
class GetLocalHour(Transform):
    """Local hour-of-day from a UTC epoch-seconds dense feature."""

    name = "GetLocalHour"
    op_class = OpClass.FEATURE_GENERATION
    cost = OpCost(cycles_per_element=8.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, utc_offset_hours: float = 0.0) -> None:
        if not -14 <= utc_offset_hours <= 14:
            raise TransformError("utc offset out of range")
        self._input_id = input_id
        self.utc_offset_hours = utc_offset_hours

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def apply(self, batch: FeatureBatch) -> Column:
        column = batch.dense(self._input_id)
        local = column.values.astype(np.float64) + self.utc_offset_hours * 3_600.0
        hours = np.mod(np.floor(local / 3_600.0), 24.0)
        return DenseColumn(hours.astype(np.float32), column.presence)


@register
class Sampling(Transform):
    """Randomly keep each row with probability *rate*.

    The output is a dense 0/1 keep-mask column; batch-level executors
    apply it as a row filter.  Deterministic under the given seed.
    """

    name = "Sampling"
    op_class = OpClass.FILTERING
    cost = OpCost(cycles_per_element=2.0, mem_bytes_per_element=8.0)

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0 < rate <= 1:
            raise TransformError("sampling rate must be in (0, 1]")
        self.rate = rate
        self.seed = seed

    @property
    def input_ids(self) -> tuple[int, ...]:
        return ()

    def apply(self, batch: FeatureBatch) -> Column:
        rng = np.random.default_rng(self.seed)
        keep = rng.random(batch.n_rows) < self.rate
        return DenseColumn(keep.astype(np.float32), np.ones(batch.n_rows, dtype=bool))
