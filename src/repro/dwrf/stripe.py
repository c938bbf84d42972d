"""Stripe encoding: turning a batch of rows into streams.

This is the core of the format.  Two layouts are supported:

* **MAP** — each stripe stores a label stream plus one big row-oriented
  stream holding every row's full feature maps.  Reading any feature
  requires fetching and decoding the whole stripe ("entire rows are
  read", Figure 10 left).
* **FLATTENED** — each feature's values across the stripe's rows are
  stored as separate presence/value/length/score streams, so a reader
  can fetch exactly the features it needs (Figure 10 right).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from ..common.errors import FormatError
from ..warehouse.row import Row, SampleBatch
from ..warehouse.schema import FeatureType, TableSchema
from . import encoding
from .layout import EncodingOptions
from .stream import ROW_LEVEL, PendingStream, StreamKind


def _seal(payload: bytes, options: EncodingOptions) -> bytes:
    return encoding.seal(payload, compress=options.compress, encrypt=options.encrypt)


def _ordered_feature_ids(schema: TableSchema, options: EncodingOptions) -> list[int]:
    """Stream order within a stripe.

    With no explicit order, features appear in schema (ID) order —
    the paper notes offline generation "effectively orders feature
    streams randomly" relative to popularity, which ID order models.
    Feature reordering passes popularity order via the options.
    """
    ids = schema.feature_ids()
    if options.feature_order is None:
        return ids
    known = set(ids)
    ordered = [fid for fid in options.feature_order if fid in known]
    placed = set(ordered)
    return ordered + [fid for fid in ids if fid not in placed]


def _encode_map_stripe(
    rows: Sequence[Row], options: EncodingOptions
) -> list[PendingStream]:
    labels = encoding.pack_floats([row.label for row in rows])
    streams = [PendingStream(ROW_LEVEL, StreamKind.LABEL, _seal(labels, options))]

    # Whole-row encoding: for each row, its dense, sparse, and score
    # maps serialized inline.  Ints go in one varint section; floats in
    # a parallel packed section (offsets are implied by the int walk).
    ints: list[int] = []
    floats: list[float] = []
    for row in rows:
        ints.append(len(row.dense))
        for fid in sorted(row.dense):
            ints.append(fid)
            floats.append(row.dense[fid])
        ints.append(len(row.sparse))
        for fid in sorted(row.sparse):
            values = row.sparse[fid]
            ints.append(fid)
            ints.append(len(values))
            ints.extend(values)
        ints.append(len(row.scores))
        for fid in sorted(row.scores):
            weights = row.scores[fid]
            ints.append(fid)
            ints.append(len(weights))
            floats.extend(weights)
    int_payload = encoding.encode_ints(ints)
    float_payload = encoding.pack_floats(floats)
    header = encoding.encode_varints([len(int_payload)])
    payload = header + int_payload + float_payload
    streams.append(PendingStream(ROW_LEVEL, StreamKind.MAP_ROWS, _seal(payload, options)))
    return streams


class _DenseAccumulator:
    """Row indices + values of one dense feature within a stripe."""

    __slots__ = ("rows", "values")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.values: list[float] = []


class _SparseAccumulator:
    """Row indices and per-row id / score sequences of one sparse feature.

    The sequences are the rows' own, held by reference: they are read
    once, when the stripe packs, and never copied or mutated.
    """

    __slots__ = ("rows", "ids", "scores")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.ids: list[Sequence[int]] = []
        self.scores: list[Sequence[float]] = []


def _flatten(sequences: list[Sequence], dtype) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, concatenated values) of one feature's per-row sequences."""
    lengths = np.fromiter(map(len, sequences), np.int64, len(sequences))
    values = np.fromiter(chain.from_iterable(sequences), dtype, int(lengths.sum()))
    return lengths, values


def _check_kind(fid: int, ftype: FeatureType, dense: bool, sparse: bool) -> None:
    """Refuse values whose physical kind contradicts the schema's."""
    if ftype is FeatureType.DENSE:
        if sparse:
            raise FormatError(f"dense feature {fid} logged sparse values")
    elif dense:
        raise FormatError(f"sparse feature {fid} logged dense values")


# A run's piece of one feature is a tuple of parallel sequences led by
# the stripe rows that logged it: (rows, values) when dense, (rows,
# lengths, ids) when sparse, (rows, lengths, ids, scores) when scored.


class _MapRun:
    """Consecutive stripe rows whose maps are their content.

    Folded per feature as the rows arrive, one pass over each row's maps.
    """

    def __init__(self) -> None:
        self.dense: dict[int, _DenseAccumulator] = {}
        self.sparse: dict[int, _SparseAccumulator] = {}

    def cut(self, fid: int, ftype: FeatureType) -> tuple | None:
        """This run's piece of feature *fid*; None if no row logged it."""
        dense = self.dense.get(fid)
        sparse = self.sparse.get(fid)
        if dense is None and sparse is None:
            return None
        _check_kind(fid, ftype, dense is not None, sparse is not None)
        if sparse is None:
            return dense.rows, dense.values
        piece = (sparse.rows, *_flatten(sparse.ids, np.int64))
        if ftype is FeatureType.SCORED_SPARSE:
            piece += (_flatten(sparse.scores, "<f4")[1],)
        return piece


class _BatchRun:
    """Consecutive stripe rows cut from one batch whose arrays are its content.

    ``indices`` lists the batch rows, in stripe order, from stripe row
    ``start`` on.  A feature's piece costs what the run's own rows cost,
    however long the batch's columns are: a binary search into the
    column, then slices when the run is batch rows ``i, i + 1, ...`` and
    a gather when it is any other selection.
    """

    def __init__(self, batch: SampleBatch, start: int, index: int) -> None:
        self.batch = batch
        self.start = start
        self.indices = [index]

    @cached_property
    def taken(self) -> np.ndarray:
        return np.asarray(self.indices)

    @cached_property
    def consecutive(self) -> bool:
        return bool((np.diff(self.taken) == 1).all())

    def cut(self, fid: int, ftype: FeatureType) -> tuple | None:
        """This run's piece of feature *fid*; None if no row logged it."""
        column = self.batch.columns.get(fid)
        if column is None or not len(column.rows):
            return None
        taken = self.taken
        if self.consecutive:
            lo, hi = column.rows.searchsorted((taken[0], taken[0] + len(taken)))
            rows = column.rows[lo:hi] + (self.start - taken[0])
            at = slice(lo, hi)
        else:
            # Where each taken row would sit in the column, and whether
            # the column lists it there.
            at = column.rows.searchsorted(taken).clip(max=len(column.rows) - 1)
            logged = column.rows[at] == taken
            rows = self.start + np.flatnonzero(logged)
            at = at[logged]
        if not len(rows):
            return None
        dense = column.values is not None
        _check_kind(fid, ftype, dense, not dense)
        if dense:
            return rows, column.values[at]
        scored = ftype is FeatureType.SCORED_SPARSE
        if scored and column.scores is None:
            raise FormatError(f"scored feature {fid} logged without score weights")
        lengths = column.lengths[at]
        starts = column.starts
        if self.consecutive:
            flat = slice(starts[lo], starts[hi])
        else:
            # Each taken row's span of ids, laid end to end.
            ends = np.cumsum(lengths)
            flat = np.arange(ends[-1]) + np.repeat(starts[at] - ends + lengths, lengths)
        if scored:
            return rows, lengths, column.ids[flat], column.scores[flat]
        return rows, lengths, column.ids[flat]


def _joined(parts: tuple) -> Sequence:
    """One sequence out of a feature's per-run parts."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class StripeColumnarBuilder:
    """Accumulates rows column-wise so a stripe packs without row scans.

    Rows arrive in *runs*.  A row cut from a :class:`SampleBatch` whose
    arrays are still its content (nobody has read a map of that batch:
    the one-truth rule of :mod:`repro.warehouse.row`) only extends the
    current batch run with its batch row; :meth:`build` then cuts each
    feature's piece of the run out of the batch's column.  Any other
    row is read through its maps: :meth:`add_row` walks only the
    features the row actually logged (one pass over its maps) and keeps
    a reference to each id and score sequence, and :meth:`build`
    flattens every feature's sequences once.  Either way a feature's
    streams are its runs' pieces back to back, byte-identical to
    packing every row value by value.
    """

    def __init__(self, schema: TableSchema, options: EncodingOptions) -> None:
        self.schema = schema
        self.options = options
        self._labels: list[float] = []
        self._runs: list[_MapRun | _BatchRun] = []
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
        """Add one row: extend the batch run it continues, or fold its maps."""
        index = len(self._labels)
        self._labels.append(row.label)
        run = self._runs[-1] if self._runs else None
        batch = row.batch
        if batch is not None and not batch.maps_built:
            if isinstance(run, _BatchRun) and run.batch is batch:
                run.indices.append(row.index)
            else:
                self._runs.append(_BatchRun(batch, index, row.index))
            return
        if not isinstance(run, _MapRun):
            run = _MapRun()
            self._runs.append(run)
        sparse, scores = row.sparse, row.scores
        for fid, value in row.dense.items():
            acc = run.dense.get(fid)
            if acc is None:
                acc = run.dense[fid] = _DenseAccumulator()
            acc.rows.append(index)
            acc.values.append(value)
        for fid, ids in sparse.items():
            acc = run.sparse.get(fid)
            if acc is None:
                acc = run.sparse[fid] = _SparseAccumulator()
            acc.rows.append(index)
            acc.ids.append(ids)
            if fid in self._scored_ids:
                try:
                    acc.scores.append(scores[fid])
                except KeyError:
                    raise FormatError(
                        f"scored feature {fid} logged without score weights"
                    ) from None
        for fid in scores:
            if fid not in sparse:
                raise FormatError(f"feature {fid} logged score weights without ids")

    def build(self) -> list[PendingStream]:
        """Pack the accumulated runs into the stripe's streams."""
        if not self._labels:
            raise FormatError("cannot encode an empty stripe")
        options = self.options
        n = len(self._labels)
        labels = encoding.pack_floats(self._labels)
        streams = [PendingStream(ROW_LEVEL, StreamKind.LABEL, _seal(labels, options))]

        for fid in _ordered_feature_ids(self.schema, options):
            ftype = self.schema.get(fid).ftype
            pieces = [
                piece
                for run in self._runs
                if (piece := run.cut(fid, ftype)) is not None
            ]
            if not pieces:
                continue  # feature absent from the whole stripe: no streams
            rows, *columns = map(_joined, zip(*pieces))
            presence = np.zeros(n, dtype=bool)
            presence[rows] = True
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.PRESENCE,
                    _seal(encoding.pack_bitmap(presence), options),
                )
            )
            if ftype is FeatureType.DENSE:
                values = encoding.pack_floats(columns[0])
                streams.append(
                    PendingStream(fid, StreamKind.DENSE_VALUES, _seal(values, options))
                )
                continue
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.SPARSE_LENGTHS,
                    _seal(encoding.encode_ints(columns[0]), options),
                )
            )
            streams.append(
                PendingStream(
                    fid,
                    StreamKind.SPARSE_VALUES,
                    _seal(encoding.encode_ints(columns[1]), options),
                )
            )
            if ftype is FeatureType.SCORED_SPARSE:
                streams.append(
                    PendingStream(
                        fid,
                        StreamKind.SCORE_VALUES,
                        _seal(encoding.pack_floats(columns[2]), options),
                    )
                )
        return streams


def decode_map_stripe(
    label_payload: bytes,
    rows_payload: bytes,
    row_count: int,
    projection: set[int] | None = None,
) -> list[Row]:
    """Decode a MAP-layout stripe's unsealed streams back into rows.

    Note the essential inefficiency this models: the *entire* stripe is
    decoded even when *projection* wants a handful of features — the
    filter applies only after decoding.
    """
    labels = encoding.unpack_floats(label_payload).tolist()
    header, rest = _split_varint_header(rows_payload)
    int_payload, float_payload = rest[:header], rest[header:]
    ints = encoding.decode_ints(int_payload).tolist()
    floats = encoding.unpack_floats(float_payload).tolist()

    rows: list[Row] = []
    ii = 0  # int cursor
    fi = 0  # float cursor
    for r in range(row_count):
        row = Row(label=labels[r])
        n_dense = ints[ii]; ii += 1
        for _ in range(n_dense):
            fid = ints[ii]; ii += 1
            value = floats[fi]; fi += 1
            row.dense[fid] = value
        n_sparse = ints[ii]; ii += 1
        for _ in range(n_sparse):
            fid = ints[ii]; ii += 1
            length = ints[ii]; ii += 1
            row.sparse[fid] = ints[ii : ii + length]; ii += length
        n_scores = ints[ii]; ii += 1
        for _ in range(n_scores):
            fid = ints[ii]; ii += 1
            length = ints[ii]; ii += 1
            row.scores[fid] = floats[fi : fi + length]; fi += length
        rows.append(row.project(projection) if projection is not None else row)
    return rows


def _split_varint_header(payload: bytes) -> tuple[int, bytes]:
    """Read the leading varint (int-section length) and return the rest."""
    for last, byte in enumerate(payload):
        if not byte & 0x80:
            break
    else:
        raise FormatError("missing stripe header")
    if last > 9:  # ten continuation bytes shift past 63 bits
        raise FormatError("varint too long")
    value = 0
    for byte in reversed(payload[: last + 1]):
        value = (value << 7) | (byte & 0x7F)
    return encoding.zigzag_decode(value), payload[last + 1 :]


@dataclass(slots=True)
class DecodedFeature:
    """One feature's streams decoded into flat arrays (no per-row lists).

    ``presence`` is a bool array over the stripe's rows.  Dense
    features carry ``dense_values`` (float32, one per present row).
    Sparse features carry ``lengths`` (int64, one per present row) plus
    the flat ``sparse_values`` (int64) and, when scored, ``scores``
    (float32) parallel to them.  Consumers slice per row only when they
    genuinely need row-major data (the ablation's costly arm).
    """

    presence: np.ndarray
    dense_values: np.ndarray | None = None
    lengths: np.ndarray | None = None
    sparse_values: np.ndarray | None = None
    scores: np.ndarray | None = None

    def present_offsets(self) -> np.ndarray:
        """Offsets into the flat sparse arrays, one per present row + 1."""
        if self.lengths is None:
            raise FormatError("dense feature has no sparse offsets")
        offsets = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        return offsets

    def row_offsets(self, row_count: int) -> np.ndarray:
        """Offsets over *all* rows (absent rows contribute empty spans)."""
        if self.lengths is None:
            raise FormatError("dense feature has no sparse offsets")
        full = np.zeros(row_count, dtype=np.int64)
        full[self.presence] = self.lengths
        offsets = np.zeros(row_count + 1, dtype=np.int64)
        np.cumsum(full, out=offsets[1:])
        return offsets


def decode_flattened_feature(
    spec_type: FeatureType,
    row_count: int,
    presence_payload: bytes,
    value_payload: bytes | None,
    lengths_payload: bytes | None = None,
    scores_payload: bytes | None = None,
) -> DecodedFeature:
    """Decode one feature's unsealed streams from a flattened stripe.

    A payload is ``None`` when the stripe has no such stream.  Returns a
    :class:`DecodedFeature` of flat numpy arrays; decoding never
    materializes per-row Python lists.
    """
    if value_payload is None:
        raise FormatError("feature missing values stream")
    presence = encoding.unpack_bitmap(presence_payload, row_count)
    if spec_type is FeatureType.DENSE:
        return DecodedFeature(presence, encoding.unpack_floats(value_payload))
    if lengths_payload is None:
        raise FormatError("sparse feature missing lengths stream")
    lengths = encoding.decode_ints(lengths_payload)
    flat = encoding.decode_ints(value_payload)
    scores: np.ndarray | None = None
    if spec_type is FeatureType.SCORED_SPARSE:
        if scores_payload is None:
            raise FormatError("scored feature missing scores stream")
        scores = encoding.unpack_floats(scores_payload)
    return DecodedFeature(presence, None, lengths, flat, scores)
