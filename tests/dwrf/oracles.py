"""Reference implementations the DWRF write and read paths are tested against.

*Write path.*  ``PerValueStripeBuilder`` is the ``StripeColumnarBuilder``
that ``repro.dwrf.stripe`` shipped before the write path stopped
re-copying samples, kept verbatim as an oracle: ``add_row`` copies every
id and score value into per-feature flat lists (``extend``) and records
every length as it goes.

*Read path.*  ``decode_varints`` and ``oracle_split_varint_header``
are the list-form varint decoder and the MAP stripe header read built on
it, from before the header read its one varint directly.  The
``oracle_*`` functions at the bottom are the bodies
``repro.dwrf.reader``, ``repro.dwrf.stripe``, ``repro.dwrf.encoding``
and ``repro.dpp.worker`` shipped before a stripe became one planned
pass: every needed range re-planned per call, fetched spans searched
linearly per stream, payloads kept in a dict keyed ``(feature_id,
StreamKind)``, each stream unsealed where it is decoded, and the
select-the-payloads block written out once per consumer.  They take a
:class:`~repro.dwrf.DwrfReader` only for its ``footer``, ``options``,
``trace`` and fetcher.

``oracle_fetch_planned_streams`` is the later body: the one planned loop
``DwrfReader._fetch_streams`` ran before the byte-dependent half of a
stripe moved to a scratch buffer — one ``trace.add`` per read as it is
fetched, and per needed stream a slice, a CRC and its own
``encoding.unseal`` call (two array allocations for the XOR each).  It
reads a plan only for its ``reads`` and ``records``.

``oracle_fetch_scratch_streams`` is the body after that: the one-piece
``DwrfReader._fetch_streams`` as it stood before its fetch-and-verify
loop was split off to also serve reads that decode nothing — the copy
into the scratch sits inside the loop, unconditionally.
"""

import zlib

import numpy as np

from repro.common.errors import FormatError
from repro.dwrf import encoding
from repro.dwrf.layout import EncodingOptions, FileLayout
from repro.dwrf.reader import _Range, plan_reads
from repro.dwrf.stream import ROW_LEVEL, PendingStream, StreamKind
from repro.dwrf.stripe import (
    DecodedFeature,
    _ordered_feature_ids,
    _seal,
    _split_varint_header,
)
from repro.transforms.batch import DenseColumn, FeatureBatch, SparseColumn
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


# -- read path -----------------------------------------------------------------


def _unseal(data: bytes, options: EncodingOptions) -> bytes:
    return encoding.unseal(data, compress=options.compress, encrypt=options.encrypt)


def decode_varints(data: bytes) -> list[int]:
    """Decode an LEB128 byte string back to signed integers (the list
    form ``repro.dwrf.encoding`` shipped; the stripe header reads its
    one varint directly now)."""
    values: list[int] = []
    shift = 0
    current = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise FormatError("varint too long")
        else:
            values.append(encoding.zigzag_decode(current))
            current = 0
            shift = 0
    if shift:
        raise FormatError("truncated varint stream")
    return values


def oracle_split_varint_header(payload: bytes) -> tuple[int, bytes]:
    """The MAP stripe header read through the list decoder."""
    cursor = 0
    for i, byte in enumerate(payload):
        if not byte & 0x80:
            cursor = i + 1
            break
    else:
        raise FormatError("missing stripe header")
    header = decode_varints(payload[:cursor])[0]
    return header, payload[cursor:]


def oracle_unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    if count > len(data) * 8:
        raise FormatError("bitmap shorter than requested count")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:count].astype(bool)


def oracle_decode_ints(data: bytes) -> np.ndarray:
    if not data:
        raise FormatError("empty integer stream")
    width, payload = data[0], data[1:]
    if width == 4:
        dtype = "<i4"
    elif width == 8:
        dtype = "<i8"
    else:
        raise FormatError(f"unknown integer stream width {width}")
    if len(payload) % width:
        raise FormatError("integer stream length not a multiple of its width")
    array = np.frombuffer(payload, dtype=dtype)
    return array.astype(np.int64, copy=False)


def _slice_from_spans(spans, offset: int, length: int) -> bytes:
    """Extract ``[offset, offset+length)`` from fetched (offset, data) spans."""
    for span_offset, data in spans:
        if span_offset <= offset and offset + length <= span_offset + len(data):
            start = offset - span_offset
            return data[start : start + length]
    raise FormatError(f"range [{offset}, {offset + length}) not fetched")


def oracle_fetch_streams(reader, stripe) -> dict:
    """Fetch the stripe's needed streams, honoring coalescing."""
    projection = reader.options.projection
    needed = []
    for info in stripe.streams:
        if info.feature_id == ROW_LEVEL:
            needed.append(info)
        elif projection is None or info.feature_id in projection:
            needed.append(info)
    ranges = [_Range(info.offset, info.length) for info in needed]
    window = reader.options.coalesce_window
    blob: dict[int, bytes] = {}
    for physical, useful in plan_reads(ranges, window):
        data = reader._fetch(physical.offset, physical.length)
        if len(data) != physical.length:
            raise FormatError("short read from fetcher")
        reader.trace.add(physical.offset, physical.length, useful)
        blob[physical.offset] = data

    # Slice each needed stream back out of the fetched spans,
    # verifying integrity against the footer's CRC.
    spans = sorted(blob.items())
    result = {}
    for info in needed:
        payload = _slice_from_spans(spans, info.offset, info.length)
        if info.checksum and zlib.crc32(payload) != info.checksum:
            raise FormatError(
                f"checksum mismatch in stream ({info.feature_id}, "
                f"{info.kind.value}) at offset {info.offset}: "
                "corrupt replica or torn read"
            )
        result[(info.feature_id, info.kind)] = payload
    return result


def oracle_fetch_planned_streams(reader, plan) -> list:
    """Fetch the planned reads; verify and unseal each needed stream."""
    fetch = reader._fetch
    record = reader.trace.add
    crc32 = zlib.crc32
    unseal = encoding.unseal
    compress = reader.footer.options.compress
    encrypt = reader.footer.options.encrypt
    payloads = []
    for (offset, length, members), (_, _, useful) in zip(plan.reads, plan.records):
        data = fetch(offset, length)
        if len(data) != length:
            raise FormatError("short read from fetcher")
        record(offset, length, useful)
        for start, end, *_, info in members:
            sealed = data[start:end]
            if info.checksum and crc32(sealed) != info.checksum:
                raise FormatError(
                    f"checksum mismatch in stream ({info.feature_id}, "
                    f"{info.kind.value}) at offset {info.offset}: "
                    "corrupt replica or torn read"
                )
            payloads.append(unseal(sealed, compress=compress, encrypt=encrypt))
    payloads.append(None)
    return payloads


def oracle_fetch_scratch_streams(reader, plan) -> list:
    """Fetch the planned reads; verify and unseal each needed stream."""
    if plan.scratch_bytes > reader._scratch.size:
        reader._scratch = np.empty(plan.scratch_bytes, dtype=np.uint8)
    scratch = reader._scratch.data
    fetch = reader._fetch
    crc32 = zlib.crc32
    fetched = 0
    try:
        for offset, length, members in plan.reads:
            data = fetch(offset, length)
            if len(data) != length:
                raise FormatError("short read from fetcher")
            fetched += 1
            for start, end, slot, slot_end, info in members:
                sealed = data[start:end]
                if info.checksum and crc32(sealed) != info.checksum:
                    raise FormatError(
                        f"checksum mismatch in stream ({info.feature_id}, "
                        f"{info.kind.value}) at offset {info.offset}: "
                        "corrupt replica or torn read"
                    )
                scratch[slot:slot_end] = sealed
    except BaseException:
        for record in plan.records[:fetched]:
            reader.trace.add(*record)
        raise
    reader.trace.extend(plan.records, plan.bytes_read, plan.useful_bytes)
    options = reader.footer.options
    if options.encrypt:
        encoding.xor_in_place(reader._scratch[: plan.scratch_bytes])
    if options.compress:
        inflate = zlib.decompress
        try:
            payloads = [inflate(scratch[lo:hi]) for lo, hi in plan.slots]
        except zlib.error as exc:
            raise FormatError(f"corrupt compressed stream: {exc}") from exc
    else:
        payloads = [scratch[lo:hi].tobytes() for lo, hi in plan.slots]
    payloads.append(None)
    return payloads


def oracle_decode_flattened_feature(
    spec_type,
    row_count,
    options,
    presence_payload,
    value_payload,
    lengths_payload=None,
    scores_payload=None,
) -> DecodedFeature:
    presence = oracle_unpack_bitmap(_unseal(presence_payload, options), row_count)
    if spec_type is FeatureType.DENSE:
        values = encoding.unpack_floats(_unseal(value_payload, options))
        return DecodedFeature(presence=presence, dense_values=values)
    if lengths_payload is None:
        raise FormatError("sparse feature missing lengths stream")
    lengths = oracle_decode_ints(_unseal(lengths_payload, options))
    flat = oracle_decode_ints(_unseal(value_payload, options))
    scores = None
    if spec_type is FeatureType.SCORED_SPARSE:
        if scores_payload is None:
            raise FormatError("scored feature missing scores stream")
        scores = encoding.unpack_floats(_unseal(scores_payload, options))
    return DecodedFeature(
        presence=presence, lengths=lengths, sparse_values=flat, scores=scores
    )


def _oracle_decode_labels(payload: bytes, options: EncodingOptions) -> np.ndarray:
    return encoding.unpack_floats(_unseal(payload, options))


def _oracle_decode_map_stripe(
    label_payload, rows_payload, row_count, options, projection=None
) -> list[Row]:
    labels = encoding.unpack_floats(_unseal(label_payload, options)).tolist()
    payload = _unseal(rows_payload, options)
    header, rest = _split_varint_header(payload)
    int_payload, float_payload = rest[:header], rest[header:]
    ints = oracle_decode_ints(int_payload).tolist()
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


def oracle_read_stripe(reader, index: int, schema: TableSchema) -> list[Row]:
    """Materialize rows of one stripe under the projection."""
    stripe = reader.footer.stripes[index]
    payloads = oracle_fetch_streams(reader, stripe)
    options = reader.footer.options
    if options.layout is FileLayout.MAP:
        projection = (
            set(reader.options.projection)
            if reader.options.projection is not None
            else None
        )
        return _oracle_decode_map_stripe(
            payloads[(ROW_LEVEL, StreamKind.LABEL)],
            payloads[(ROW_LEVEL, StreamKind.MAP_ROWS)],
            stripe.row_count,
            options,
            projection,
        )
    labels = _oracle_decode_labels(payloads[(ROW_LEVEL, StreamKind.LABEL)], options)
    rows = [Row(label=label) for label in labels.tolist()]
    projection = reader.options.projection
    for fid in reader.footer.feature_ids:
        if projection is not None and fid not in projection:
            continue
        if not stripe.has_stream(fid, StreamKind.PRESENCE):
            continue  # feature absent from this stripe
        spec = schema.get(fid)
        presence_payload = payloads[(fid, StreamKind.PRESENCE)]
        if spec.ftype is FeatureType.DENSE:
            value_payload = payloads[(fid, StreamKind.DENSE_VALUES)]
            lengths_payload = None
        else:
            value_payload = payloads[(fid, StreamKind.SPARSE_VALUES)]
            lengths_payload = payloads[(fid, StreamKind.SPARSE_LENGTHS)]
        scores_payload = payloads.get((fid, StreamKind.SCORE_VALUES))
        decoded = oracle_decode_flattened_feature(
            spec.ftype,
            stripe.row_count,
            options,
            presence_payload,
            value_payload,
            lengths_payload,
            scores_payload,
        )
        present_indices = np.flatnonzero(decoded.presence)
        if spec.ftype is FeatureType.DENSE:
            values = decoded.dense_values.tolist()
            for cursor, row_index in enumerate(present_indices):
                rows[row_index].dense[fid] = values[cursor]
            continue
        offsets = decoded.present_offsets().tolist()
        flat = decoded.sparse_values.tolist()
        flat_scores = None if decoded.scores is None else decoded.scores.tolist()
        for cursor, row_index in enumerate(present_indices):
            lo, hi = offsets[cursor], offsets[cursor + 1]
            row = rows[row_index]
            row.sparse[fid] = flat[lo:hi]
            if flat_scores is not None:
                row.scores[fid] = flat_scores[lo:hi]
    return rows


def oracle_read_stripe_columnar(
    reader, stripe_index: int, projection, schema: TableSchema
) -> tuple[FeatureBatch, int]:
    """``DppWorker._read_stripe_columnar`` with its own payload selection."""
    stripe = reader.footer.stripes[stripe_index]
    payloads = oracle_fetch_streams(reader, stripe)
    options = reader.footer.options
    labels = _oracle_decode_labels(payloads[(ROW_LEVEL, StreamKind.LABEL)], options)
    batch = FeatureBatch(labels=labels)
    n_values = len(labels)
    for fid in sorted(projection):
        if not stripe.has_stream(fid, StreamKind.PRESENCE):
            continue
        spec = schema.get(fid)
        if spec.ftype is FeatureType.DENSE:
            value_payload = payloads[(fid, StreamKind.DENSE_VALUES)]
            lengths_payload = None
        else:
            value_payload = payloads[(fid, StreamKind.SPARSE_VALUES)]
            lengths_payload = payloads[(fid, StreamKind.SPARSE_LENGTHS)]
        scores_payload = payloads.get((fid, StreamKind.SCORE_VALUES))
        decoded = oracle_decode_flattened_feature(
            spec.ftype,
            stripe.row_count,
            options,
            payloads[(fid, StreamKind.PRESENCE)],
            value_payload,
            lengths_payload,
            scores_payload,
        )
        if spec.ftype is FeatureType.DENSE:
            full = np.zeros(stripe.row_count, dtype=np.float32)
            full[decoded.presence] = decoded.dense_values
            batch.add_column(fid, DenseColumn(full, decoded.presence))
            n_values += len(decoded.dense_values)
        else:
            column = SparseColumn(
                decoded.row_offsets(stripe.row_count),
                decoded.sparse_values,
                decoded.scores,
            )
            batch.add_column(fid, column)
            n_values += len(column.values)
    return batch, n_values
