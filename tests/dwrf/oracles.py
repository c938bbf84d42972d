"""Reference implementation the stripe builder is tested against.

This is the ``StripeColumnarBuilder`` that ``repro.dwrf.stripe`` shipped
before the write path stopped re-copying samples, kept verbatim as an
oracle: ``add_row`` copies every id and score value into per-feature
flat lists (``extend``) and records every length as it goes.
"""

import numpy as np

from repro.common.errors import FormatError
from repro.dwrf import encoding
from repro.dwrf.layout import EncodingOptions
from repro.dwrf.stream import ROW_LEVEL, PendingStream, StreamKind
from repro.dwrf.stripe import _ordered_feature_ids, _seal
from repro.warehouse.row import Row
from repro.warehouse.schema import FeatureType, TableSchema


class _DenseAccumulator:
    """Row indices + values of one dense feature within a stripe."""

    __slots__ = ("rows", "values")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.values: list[float] = []


class _SparseAccumulator:
    """Row indices, lengths, and flat IDs/scores of one sparse feature."""

    __slots__ = ("rows", "lengths", "values", "scores")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.lengths: list[int] = []
        self.values: list[int] = []
        self.scores: list[float] = []


class PerValueStripeBuilder:
    """``StripeColumnarBuilder`` with the per-value ``add_row`` body."""

    def __init__(self, schema: TableSchema, options: EncodingOptions) -> None:
        self.schema = schema
        self.options = options
        self._labels: list[float] = []
        self._dense: dict[int, _DenseAccumulator] = {}
        self._sparse: dict[int, _SparseAccumulator] = {}
        self._scored_ids = {
            spec.feature_id
            for spec in schema
            if spec.ftype is FeatureType.SCORED_SPARSE
        }

    @property
    def n_rows(self) -> int:
        """Rows accumulated so far."""
        return len(self._labels)

    def add_row(self, row: Row) -> None:
        """Fold one row's feature maps into the per-feature columns."""
        index = len(self._labels)
        self._labels.append(row.label)
        for fid, value in row.dense.items():
            acc = self._dense.get(fid)
            if acc is None:
                acc = self._dense[fid] = _DenseAccumulator()
            acc.rows.append(index)
            acc.values.append(value)
        for fid, ids in row.sparse.items():
            acc = self._sparse.get(fid)
            if acc is None:
                acc = self._sparse[fid] = _SparseAccumulator()
            acc.rows.append(index)
            acc.lengths.append(len(ids))
            acc.values.extend(ids)
            if fid in self._scored_ids:
                try:
                    acc.scores.extend(row.scores[fid])
                except KeyError:
                    raise FormatError(
                        f"scored feature {fid} logged without score weights"
                    ) from None
        if row.scores:
            for fid in row.scores:
                if fid not in row.sparse:
                    raise FormatError(
                        f"feature {fid} logged score weights without ids"
                    )

    def build(self) -> list[PendingStream]:
        """Pack the accumulated columns into the stripe's streams."""
        if not self._labels:
            raise FormatError("cannot encode an empty stripe")
        options = self.options
        n = len(self._labels)
        labels = encoding.pack_floats(self._labels)
        streams = [PendingStream(ROW_LEVEL, StreamKind.LABEL, _seal(labels, options))]

        for fid in _ordered_feature_ids(self.schema, options):
            spec = self.schema.get(fid)
            dense_acc = self._dense.get(fid)
            sparse_acc = self._sparse.get(fid)
            if dense_acc is None and sparse_acc is None:
                continue  # feature absent from the whole stripe: no streams
            if spec.ftype is FeatureType.DENSE:
                if sparse_acc is not None:
                    raise FormatError(f"dense feature {fid} logged sparse values")
                presence = np.zeros(n, dtype=bool)
                presence[dense_acc.rows] = True
                streams.append(
                    PendingStream(
                        fid,
                        StreamKind.PRESENCE,
                        _seal(encoding.pack_bitmap(presence), options),
                    )
                )
                values = encoding.pack_floats(dense_acc.values)
                streams.append(
                    PendingStream(fid, StreamKind.DENSE_VALUES, _seal(values, options))
                )
                continue
            if dense_acc is not None:
                raise FormatError(f"sparse feature {fid} logged dense values")
            presence = np.zeros(n, dtype=bool)
            presence[sparse_acc.rows] = True
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.PRESENCE,
                    _seal(encoding.pack_bitmap(presence), options),
                )
            )
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.SPARSE_LENGTHS,
                    _seal(encoding.encode_ints(sparse_acc.lengths), options),
                )
            )
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.SPARSE_VALUES,
                    _seal(encoding.encode_ints(sparse_acc.values), options),
                )
            )
            if spec.ftype is FeatureType.SCORED_SPARSE:
                streams.append(
                    PendingStream(
                        fid,
                        StreamKind.SCORE_VALUES,
                        _seal(encoding.pack_floats(sparse_acc.scores), options),
                    )
                )
        return streams
