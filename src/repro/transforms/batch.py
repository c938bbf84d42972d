"""Columnar mini-batch representation used during preprocessing.

DPP workers operate on mini-batches, not whole tables (Section 3.2).
The in-memory layout here is the *flatmap* format the paper adopted
(Table 12, FM): each feature's values are contiguous across the batch's
rows — dense features as a value array plus presence mask, sparse
features as offsets + flat value arrays — matching both the DWRF
on-disk format and the final tensor format.

Arrays are write-once: an array placed in a :class:`DenseColumn`,
:class:`SparseColumn` or ``TensorBatch`` is never written again, by
anyone.  That is what lets an op whose output keeps its input's row
structure share the input's ``offsets``/``weights``/``presence``, lets
a row slice be a view, and lets tensors take a column's arrays by
reference; a caller that wants to scribble takes a ``copy()`` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import TransformError
from ..warehouse.row import Row


@dataclass
class DenseColumn:
    """A dense feature across a batch: float values + presence mask."""

    values: np.ndarray  # float32, one per row; undefined where absent
    presence: np.ndarray  # bool, one per row

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        self.presence = np.asarray(self.presence, dtype=bool)
        if self.values.shape != self.presence.shape:
            raise TransformError("dense values and presence must align")

    def __len__(self) -> int:
        return len(self.values)

    def nbytes(self) -> int:
        """Resident bytes of the column."""
        return self.values.nbytes + self.presence.nbytes

    def copy(self) -> "DenseColumn":
        """Deep copy: arrays the caller may write to."""
        return DenseColumn(self.values.copy(), self.presence.copy())

    def rows(self, start: int, stop: int) -> "DenseColumn":
        """Rows ``start:stop`` as views of this column's arrays."""
        return DenseColumn(self.values[start:stop], self.presence[start:stop])


@dataclass
class SparseColumn:
    """A sparse feature across a batch: ragged ID lists in flat form.

    ``offsets`` has ``n_rows + 1`` entries; row *i*'s IDs are
    ``values[offsets[i]:offsets[i+1]]``.  Rows that did not log the
    feature simply have an empty span.  ``weights``, when present,
    parallels ``values`` (the scored-sparse column type).
    """

    offsets: np.ndarray  # int64, n_rows + 1
    values: np.ndarray  # int64, total ids
    weights: np.ndarray | None = None  # float32, total ids

    def __post_init__(self) -> None:
        self.offsets = offsets = np.asarray(self.offsets, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise TransformError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or offsets[-1] != len(self.values):
            raise TransformError("offsets must start at 0 and end at len(values)")
        if (offsets[1:] < offsets[:-1]).any():
            raise TransformError("offsets must be non-decreasing")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float32)
            if len(self.weights) != len(self.values):
                raise TransformError("weights must parallel values")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def row(self, i: int) -> np.ndarray:
        """The ID list of row *i*."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def lengths(self) -> np.ndarray:
        """Per-row list lengths."""
        return self.offsets[1:] - self.offsets[:-1]

    @classmethod
    def _checked(cls, offsets, values, weights) -> "SparseColumn":
        """A column over offsets a checked column already vouches for:
        typed arrays in, no second scan of the offsets."""
        column = cls.__new__(cls)
        column.offsets, column.values, column.weights = offsets, values, weights
        return column

    def with_values(self, values, weights) -> "SparseColumn":
        """Same rows, other int64 IDs (and float32 *weights* or None) one
        for one: ``offsets`` is shared, not copied."""
        if len(values) != len(self.values):
            raise TransformError("values must map this column's IDs one for one")
        return self._checked(self.offsets, values, weights)

    def rows(self, start: int, stop: int) -> "SparseColumn":
        """Rows ``start:stop``: rebased offsets over views of the flat arrays."""
        offsets = self.offsets[start : stop + 1]
        first, last = offsets[0], offsets[-1]
        weights = None if self.weights is None else self.weights[first:last]
        return self._checked(offsets - first, self.values[first:last], weights)

    def nbytes(self) -> int:
        """Resident bytes of the column."""
        total = self.offsets.nbytes + self.values.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def copy(self) -> "SparseColumn":
        """Deep copy: arrays the caller may write to."""
        return SparseColumn(
            self.offsets.copy(),
            self.values.copy(),
            None if self.weights is None else self.weights.copy(),
        )

    @classmethod
    def from_lists(
        cls, lists: list[list[int]], weights: list[list[float]] | None = None
    ) -> "SparseColumn":
        """Build a column from per-row Python lists."""
        lengths = [len(ids) for ids in lists]
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        values = np.fromiter(
            (v for ids in lists for v in ids), dtype=np.int64,
            count=int(offsets[-1]),
        )
        packed_weights = None
        if weights is not None:
            packed_weights = np.fromiter(
                (w for ws in weights for w in ws), dtype=np.float32,
                count=int(offsets[-1]),
            )
        return cls(offsets, values, packed_weights)

    @classmethod
    def from_optional(cls, values: np.ndarray, presence: np.ndarray) -> "SparseColumn":
        """One-ID lists: row *i* holds ``values[i]`` where present, else nothing."""
        offsets = np.zeros(len(presence) + 1, dtype=np.int64)
        np.cumsum(presence, out=offsets[1:])
        return cls(offsets, values[presence])

    def to_lists(self) -> list[list[int]]:
        """Per-row Python lists (testing convenience)."""
        return [list(map(int, self.row(i))) for i in range(len(self))]


Column = DenseColumn | SparseColumn


@dataclass
class FeatureBatch:
    """A mini-batch: labels plus named feature columns."""

    labels: np.ndarray
    columns: dict[int, Column] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.float32)

    @property
    def n_rows(self) -> int:
        """Number of samples in the batch."""
        return len(self.labels)

    def column(self, feature_id: int) -> Column:
        """Look up a feature column."""
        try:
            return self.columns[feature_id]
        except KeyError:
            raise TransformError(f"batch has no feature {feature_id}") from None

    def dense(self, feature_id: int) -> DenseColumn:
        """Look up a column, asserting it is dense."""
        column = self.column(feature_id)
        if not isinstance(column, DenseColumn):
            raise TransformError(f"feature {feature_id} is not dense")
        return column

    def sparse(self, feature_id: int) -> SparseColumn:
        """Look up a column, asserting it is sparse."""
        column = self.column(feature_id)
        if not isinstance(column, SparseColumn):
            raise TransformError(f"feature {feature_id} is not sparse")
        return column

    def add_column(self, feature_id: int, column: Column) -> None:
        """Attach a (derived) feature column to the batch."""
        if len(column) != self.n_rows:
            raise TransformError(
                f"column of {len(column)} rows in a batch of {self.n_rows}"
            )
        self.columns[feature_id] = column

    def nbytes(self) -> int:
        """Resident bytes across labels and columns."""
        return self.labels.nbytes + sum(c.nbytes() for c in self.columns.values())

    @classmethod
    def from_rows(cls, rows: list[Row], feature_ids: list[int] | None = None) -> "FeatureBatch":
        """Materialize a batch from warehouse rows.

        *feature_ids* restricts which features become columns (the
        projection); by default every feature present in any row does.
        """
        if not rows:
            raise TransformError("cannot build a batch from zero rows")
        if feature_ids is None:
            seen: set[int] = set()
            for row in rows:
                seen |= row.feature_ids()
            feature_ids = sorted(seen)
        batch = cls(labels=np.array([row.label for row in rows], dtype=np.float32))
        for fid in feature_ids:
            sparse_rows = [row.sparse.get(fid) for row in rows]
            if any(ids is not None for ids in sparse_rows):
                lists = [ids if ids is not None else [] for ids in sparse_rows]
                has_weights = any(fid in row.scores for row in rows)
                weights = None
                if has_weights:
                    weights = [
                        row.scores.get(fid, [0.0] * len(lists[i]))
                        for i, row in enumerate(rows)
                    ]
                batch.add_column(fid, SparseColumn.from_lists(lists, weights))
            else:
                presence = np.array([fid in row.dense for row in rows], dtype=bool)
                if not presence.any():
                    continue
                values = np.array(
                    [row.dense.get(fid, 0.0) for row in rows], dtype=np.float32
                )
                batch.add_column(fid, DenseColumn(values, presence))
        return batch
