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
    """Shared plumbing for single-input dense ops.

    An op whose output at a row depends on that row's value alone gives
    a ``kernel`` over float32 values of any shape, and a ``fusion_key``:
    that is what lets the session plan stack the inputs of equal ops and
    make one call.  The others override ``apply``.
    """

    op_class = OpClass.DENSE_NORMALIZATION
    cost = OpCost(cycles_per_element=4.0, mem_bytes_per_element=12.0)

    def __init__(self, input_id: int) -> None:
        self._input_id = input_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def _input(self, batch: FeatureBatch) -> DenseColumn:
        return batch.dense(self._input_id)

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        return DenseColumn(self.kernel(column.values), column.presence)


@register
class BoxCox(_DenseUnary):
    """Box-Cox power transform for normalizing skewed dense features."""

    name = "BoxCox"

    def __init__(self, input_id: int, lmbda: float = 0.5) -> None:
        super().__init__(input_id)
        self.lmbda = lmbda

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        present = column.presence
        if not present.any():
            return column  # nothing to normalize: filler throughout
        # Box-Cox requires positive inputs; shift so the smallest present
        # value is 1.  Absent slots hold filler, which must neither set
        # the shift nor go below it: they are pinned to 1 (-> 0.0).
        low = column.values[present].min()
        shifted = np.where(present, column.values - low + 1.0, np.float32(1.0))
        if self.lmbda == 0.0:
            values = np.log(shifted)
        else:
            values = (np.power(shifted, self.lmbda) - 1.0) / self.lmbda
        return DenseColumn(values.astype(np.float32), column.presence)


@register
class Logit(_DenseUnary):
    """Logit transform ``log(p / (1 - p))`` with clamping to (eps, 1-eps)."""

    name = "Logit"

    def __init__(self, input_id: int, eps: float = 1e-6) -> None:
        super().__init__(input_id)
        if not 0 < eps < 0.5:
            raise TransformError("eps must be in (0, 0.5)")
        self.eps = eps

    def fusion_key(self) -> tuple:
        return (Logit, self.eps)

    def kernel(self, values: np.ndarray) -> np.ndarray:
        p = np.clip(values, self.eps, 1.0 - self.eps)
        p /= 1.0 - p
        return np.log(p, out=p).astype(np.float32, copy=False)


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

    def fusion_key(self) -> tuple:
        return (Clamp, self.lo, self.hi)

    def kernel(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lo, self.hi).astype(np.float32, copy=False)


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
