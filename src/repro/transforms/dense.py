"""Dense feature normalization ops: BoxCox, Logit, Onehot, Clamp.

Dense normalization is the cheapest class (~5% of transform cycles,
Section 6.4): element-wise arithmetic over one float per row.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TransformError
from .base import OpClass, OpCost, Transform, register
from .batch import Column, DenseColumn, FeatureBatch, SparseColumn


class _DenseUnary(Transform):
    """Shared plumbing for single-input dense ops."""

    op_class = OpClass.DENSE_NORMALIZATION
    cost = OpCost(cycles_per_element=4.0, mem_bytes_per_element=12.0)

    def __init__(self, input_id: int) -> None:
        self._input_id = input_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def _input(self, batch: FeatureBatch) -> DenseColumn:
        return batch.dense(self._input_id)


@register
class BoxCox(_DenseUnary):
    """Box-Cox power transform for normalizing skewed dense features."""

    name = "BoxCox"

    def __init__(self, input_id: int, lmbda: float = 0.5) -> None:
        super().__init__(input_id)
        self.lmbda = lmbda

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        # Box-Cox requires positive inputs; shift so the minimum is 1.
        shifted = column.values - column.values.min() + 1.0
        if self.lmbda == 0.0:
            values = np.log(shifted)
        else:
            values = (np.power(shifted, self.lmbda) - 1.0) / self.lmbda
        return DenseColumn(values.astype(np.float32), column.presence.copy())


@register
class Logit(_DenseUnary):
    """Logit transform ``log(p / (1 - p))`` with clamping to (eps, 1-eps)."""

    name = "Logit"

    def __init__(self, input_id: int, eps: float = 1e-6) -> None:
        super().__init__(input_id)
        if not 0 < eps < 0.5:
            raise TransformError("eps must be in (0, 0.5)")
        self.eps = eps

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        p = np.clip(column.values, self.eps, 1.0 - self.eps)
        values = np.log(p / (1.0 - p))
        return DenseColumn(values.astype(np.float32), column.presence.copy())


@register
class Clamp(_DenseUnary):
    """Clamp dense values into [lo, hi] — same as ``std::clamp``."""

    name = "Clamp"
    cost = OpCost(cycles_per_element=2.0, mem_bytes_per_element=12.0)

    def __init__(self, input_id: int, lo: float, hi: float) -> None:
        super().__init__(input_id)
        if lo > hi:
            raise TransformError(f"clamp range inverted: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        values = np.clip(column.values, self.lo, self.hi)
        return DenseColumn(values.astype(np.float32), column.presence.copy())


@register
class Onehot(_DenseUnary):
    """One-hot encode a dense feature against bucket borders.

    The output is a sparse column with exactly one categorical ID per
    present row — the index of the half-open bucket the value falls in.
    """

    name = "Onehot"
    cost = OpCost(cycles_per_element=6.0, mem_bytes_per_element=20.0)

    def __init__(self, input_id: int, borders: list[float]) -> None:
        super().__init__(input_id)
        if not borders or sorted(borders) != list(borders):
            raise TransformError("borders must be a non-empty sorted list")
        self.borders = np.asarray(borders, dtype=np.float64)

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        buckets = np.searchsorted(self.borders, column.values, side="right")
        return SparseColumn.from_optional(buckets, column.presence)
