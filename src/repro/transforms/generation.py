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
        with np.errstate(over="ignore"):
            mixed = splitmix64(a * np.int64(1_000_003) + b)
        return SparseColumn(offsets, (mixed >> np.uint64(1)).astype(np.int64))


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
        n_rows = batch.n_rows
        sequence, seq_offsets = self._concatenate_rows(columns, n_rows)
        seq_lengths = np.diff(seq_offsets)
        windows = np.maximum(seq_lengths - (self.n - 1), 0)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(windows, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return SparseColumn(offsets, np.empty(0, dtype=np.int64))
        # Window k of a row starts at its sequence offset + k; the
        # n-gram hash folds the n positions iteratively, all rows flat.
        base = np.repeat(seq_offsets[:-1], windows) + (
            np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], windows)
        )
        mixed = np.zeros(total, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(self.n):
                mixed = splitmix64(
                    mixed.astype(np.int64) * np.int64(31) + sequence[base + j]
                )
        return SparseColumn(offsets, (mixed >> np.uint64(1)).astype(np.int64))

    @staticmethod
    def _concatenate_rows(
        columns: list[SparseColumn], n_rows: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise concatenation of several sparse columns, flat.

        Returns ``(values, offsets)`` where each row's span holds its
        IDs from every input column in column order.
        """
        if len(columns) == 1:
            return columns[0].values, columns[0].offsets
        lengths = np.stack([column.lengths() for column in columns])
        seq_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths.sum(axis=0), out=seq_offsets[1:])
        values = np.empty(int(seq_offsets[-1]), dtype=np.int64)
        prior = np.zeros(n_rows, dtype=np.int64)
        for column, column_lengths in zip(columns, lengths):
            reps = column_lengths
            within = np.arange(len(column.values), dtype=np.int64) - np.repeat(
                column.offsets[:-1], reps
            )
            values[np.repeat(seq_offsets[:-1] + prior, reps) + within] = column.values
            prior += column_lengths
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
        return SparseColumn(column.offsets.copy(), buckets.astype(np.int64))


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
        return DenseColumn(hours.astype(np.float32), column.presence.copy())


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

    def input_elements(self, batch: FeatureBatch) -> int:
        return batch.n_rows
