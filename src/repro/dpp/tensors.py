"""Materialized tensor batches: DPP's output format.

Workers batch transformed samples into tensors "to be loaded onto GPU
trainers" (Section 3.2.1).  Dense features stack into a 2-D float
matrix; sparse features keep the offsets + values layout that embedding
lookups consume (the same flat format as
:class:`~repro.transforms.batch.SparseColumn`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import DppError
from ..transforms.batch import DenseColumn, FeatureBatch, SparseColumn

# Thrift envelope + field headers: bytes of wire overhead per tensor
# batch and per tensor, part of the "datacenter tax" (Section 6.2).
WIRE_OVERHEAD_PER_BATCH = 256
WIRE_OVERHEAD_PER_TENSOR = 16


@dataclass
class TensorBatch:
    """One ready-to-load batch of training tensors.

    ``split_id``/``sequence`` are delivery provenance: which split this
    batch came from and its deterministic index within that split.  The
    master uses them to reopen splits whose batches died unserved in a
    worker's buffer, and the chaos plane to check exactly-once
    delivery.  ``None`` means the batch was built outside a session.
    """

    labels: np.ndarray
    dense: dict[int, np.ndarray] = field(default_factory=dict)
    sparse_offsets: dict[int, np.ndarray] = field(default_factory=dict)
    sparse_values: dict[int, np.ndarray] = field(default_factory=dict)
    sparse_weights: dict[int, np.ndarray] = field(default_factory=dict)
    split_id: int | None = None
    sequence: int = 0

    @property
    def n_rows(self) -> int:
        """Number of samples in the batch."""
        return len(self.labels)

    def nbytes(self) -> int:
        """Resident bytes of all tensors."""
        total = self.labels.nbytes
        total += sum(a.nbytes for a in self.dense.values())
        total += sum(a.nbytes for a in self.sparse_offsets.values())
        total += sum(a.nbytes for a in self.sparse_values.values())
        total += sum(a.nbytes for a in self.sparse_weights.values())
        return total

    def wire_bytes(self) -> int:
        """Serialized size on the Worker→Client RPC path."""
        n_tensors = (
            1
            + len(self.dense)
            + 2 * len(self.sparse_offsets)
            + len(self.sparse_weights)
        )
        return self.nbytes() + WIRE_OVERHEAD_PER_BATCH + n_tensors * WIRE_OVERHEAD_PER_TENSOR

    @classmethod
    def from_feature_batch(
        cls, batch: FeatureBatch, output_ids: list[int] | None = None
    ) -> "TensorBatch":
        """Materialize tensors from a transformed feature batch.

        *output_ids* selects which columns become tensors (the model's
        input features); by default all columns do.  Column arrays are
        write-once (see :mod:`repro.transforms.batch`), so labels and
        sparse arrays are handed over by reference.
        """
        ids = output_ids if output_ids is not None else sorted(batch.columns)
        tensors = cls(labels=batch.labels)
        for fid in ids:
            column = batch.column(fid)
            if isinstance(column, DenseColumn):
                tensors.dense[fid] = np.where(
                    column.presence, column.values, np.float32(0.0)
                )
            elif isinstance(column, SparseColumn):
                tensors.sparse_offsets[fid] = column.offsets
                tensors.sparse_values[fid] = column.values
                if column.weights is not None:
                    tensors.sparse_weights[fid] = column.weights
            else:  # pragma: no cover - defensive
                raise DppError(f"unsupported column type for feature {fid}")
        return tensors
