"""Sparse feature normalization ops.

SigridHash, FirstX, PositiveModulus, MapId, Enumerate, ComputeScore, and
IdListTransform operate on categorical ID lists; they are the middle
cost class (~20% of transform cycles, Section 6.4).  Every op here is a
fixed number of passes over the flat arrays except IdListTransform, the
one remaining per-row loop.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TransformError
from .base import OpClass, OpCost, Transform, register
from .batch import Column, FeatureBatch, SparseColumn


class _SparseUnary(Transform):
    """Shared plumbing for single-input sparse ops."""

    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=8.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int) -> None:
        self._input_id = input_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def _input(self, batch: FeatureBatch) -> SparseColumn:
        return batch.sparse(self._input_id)


_GOLDEN, _MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1
_ROUNDS = (  # xor with self >> shift, then multiply (the last round does not)
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
    (np.uint64(31), None),
)


def splitmix64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer of ``values + salt`` — a real,
    well-mixed 64-bit hash.  *values*, any 64-bit integer array, is read
    as unsigned and left alone: the sum is the one temporary, mixed in
    place (unsigned array arithmetic wraps silently, as the hash does)."""
    x = values.view(np.uint64) + np.uint64((salt + _GOLDEN) & _MASK64)
    scratch = np.empty_like(x)
    for shift, multiplier in _ROUNDS:
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        if multiplier is not None:
            x *= multiplier
    return x


def floor_mod(values: np.ndarray, modulus) -> np.ndarray:
    """``values % modulus`` (positive scalar) as ``v - (v // m) * m``: numpy
    divides an array by a scalar with multiply-shift but takes ``%`` with
    a hardware divide per element.  Exact even where ``(v // m) * m`` wraps."""
    quotient = values // modulus
    quotient *= modulus
    return np.subtract(values, quotient, out=quotient)


@register
class SigridHash(_SparseUnary):
    """Hash categorical IDs into a fixed embedding-table range."""

    name = "SigridHash"
    cost = OpCost(cycles_per_element=12.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, table_size: int, salt: int = 0) -> None:
        super().__init__(input_id)
        if table_size <= 0:
            raise TransformError("table_size must be positive")
        self.table_size = table_size
        self.salt = salt

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        hashed = splitmix64(column.values, self.salt)
        hashed = floor_mod(hashed, np.uint64(self.table_size))
        return column.with_values(hashed.view(np.int64), column.weights)


@register
class FirstX(_SparseUnary):
    """Truncate each ID list to its first *x* elements."""

    name = "FirstX"
    cost = OpCost(cycles_per_element=4.0, mem_bytes_per_element=16.0)

    def __init__(self, input_id: int, x: int) -> None:
        super().__init__(input_id)
        if x < 0:
            raise TransformError("x must be non-negative")
        self.x = x

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        lengths = np.minimum(column.lengths(), self.x)
        offsets = np.zeros(len(column) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # Kept element k of the output sits where its row starts in the
        # input plus its position within the row, all rows flat.
        keep = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
            column.offsets[:-1] - offsets[:-1], lengths
        )
        values = column.values[keep]
        weights = None if column.weights is None else column.weights[keep]
        return SparseColumn(offsets, values, weights)


@register
class PositiveModulus(_SparseUnary):
    """``((v % m) + m) % m`` — always-positive remainder of each ID."""

    name = "PositiveModulus"
    cost = OpCost(cycles_per_element=5.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, modulus: int) -> None:
        super().__init__(input_id)
        if modulus <= 0:
            raise TransformError("modulus must be positive")
        self.modulus = modulus

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        # Floor division, so the remainder is already positive.
        values = floor_mod(column.values, np.int64(self.modulus))
        return column.with_values(values, column.weights)


@register
class MapId(_SparseUnary):
    """Map feature IDs to fixed values through a lookup table."""

    name = "MapId"
    cost = OpCost(cycles_per_element=10.0, mem_bytes_per_element=32.0)

    def __init__(self, input_id: int, mapping: dict[int, int], default: int = 0) -> None:
        super().__init__(input_id)
        self.mapping = dict(mapping)
        self.default = default
        # Sorted keys and their targets, plus one closing (0 -> default)
        # slot for IDs above every key: matching it is the same as a miss.
        keys = sorted(self.mapping)
        self._keys = np.array(keys + [0], dtype=np.int64)
        self._targets = np.array(
            [self.mapping[key] for key in keys] + [default], dtype=np.int64
        )

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        slot = np.searchsorted(self._keys[:-1], column.values)
        hit = self._keys[slot] == column.values
        values = np.where(hit, self._targets[slot], self.default)
        return column.with_values(values, column.weights)


@register
class Enumerate(_SparseUnary):
    """Replace each ID with its position in the list — Python ``enumerate``."""

    name = "Enumerate"
    cost = OpCost(cycles_per_element=3.0, mem_bytes_per_element=16.0)

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        positions = np.arange(len(column.values), dtype=np.int64) - np.repeat(
            column.offsets[:-1], column.lengths()
        )
        return column.with_values(positions, column.weights)


@register
class ComputeScore(Transform):
    """Arithmetic over the score weights of a scored-sparse feature.

    Produces a new scored column whose weights are ``scale * w + bias``
    — the paper's "arithmetic operations on sparse features".
    """

    name = "ComputeScore"
    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=6.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, scale: float = 1.0, bias: float = 0.0) -> None:
        self._input_id = input_id
        self.scale = scale
        self.bias = bias

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def apply(self, batch: FeatureBatch) -> Column:
        column = batch.sparse(self._input_id)
        if column.weights is None:
            raise TransformError(
                f"ComputeScore requires a scored feature, {self._input_id} has no weights"
            )
        weights = column.weights * self.scale + self.bias
        return column.with_values(
            column.values, weights.astype(np.float32, copy=False)
        )


@register
class IdListTransform(Transform):
    """Per-row intersection of two sparse features' ID lists."""

    name = "IdListTransform"
    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=14.0, mem_bytes_per_element=40.0)

    def __init__(self, left_id: int, right_id: int) -> None:
        self._left_id = left_id
        self._right_id = right_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._left_id, self._right_id)

    def apply(self, batch: FeatureBatch) -> Column:
        left = batch.sparse(self._left_id)
        right = batch.sparse(self._right_id)
        lists = []
        for i in range(len(left)):
            right_set = set(map(int, right.row(i)))
            seen: set[int] = set()
            intersection = []
            for v in map(int, left.row(i)):
                if v in right_set and v not in seen:
                    intersection.append(v)
                    seen.add(v)
            lists.append(intersection)
        return SparseColumn.from_lists(lists)
