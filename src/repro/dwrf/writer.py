"""DWRF file writer.

Files are written stripe-by-stripe: rows are buffered until the stripe
row budget is reached, encoded into streams, and the streams appended to
the file (stripes "are periodically flushed and appended", Section
3.1.2).  The writer returns the raw data bytes plus a
:class:`~repro.dwrf.layout.FileFooter`; callers typically hand the bytes
to the Tectonic filesystem.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable

from ..common.errors import FormatError
from ..warehouse.row import Row
from ..warehouse.schema import TableSchema
from .layout import EncodingOptions, FileFooter, FileLayout, StripeMeta
from .stream import StreamInfo
from .stripe import StripeColumnarBuilder, _encode_map_stripe


@dataclass
class DwrfFile:
    """An encoded file: raw stripe bytes plus out-of-band footer."""

    data: bytes
    footer: FileFooter

    @property
    def size(self) -> int:
        """Total data bytes (footer excluded; it is metadata)."""
        return len(self.data)


class DwrfWriter:
    """Streams rows into stripes under a fixed :class:`EncodingOptions`."""

    def __init__(self, schema: TableSchema, options: EncodingOptions | None = None) -> None:
        self.schema = schema
        self.options = options or EncodingOptions()
        # MAP stripes are encoded row-wise and buffer whole rows; the
        # FLATTENED layout accumulates column-wise as rows arrive so a
        # full stripe packs in one vectorized pass.
        self._buffer: list[Row] = []
        self._builder: StripeColumnarBuilder | None = None
        if self.options.layout is not FileLayout.MAP:
            self._builder = StripeColumnarBuilder(self.schema, self.options)
        self._data = bytearray()
        self._stripes: list[StripeMeta] = []
        self._closed = False

    def _pending_rows(self) -> int:
        if self._builder is not None:
            return self._builder.n_rows
        return len(self._buffer)

    def write_row(self, row: Row) -> None:
        """Buffer one row, flushing a stripe when the budget fills."""
        if self._closed:
            raise FormatError("writer already closed")
        if self._builder is not None:
            self._builder.add_row(row)
        else:
            self._buffer.append(row)
        if self._pending_rows() >= self.options.stripe_rows:
            self._flush_stripe()

    def write_rows(self, rows: Iterable[Row]) -> None:
        """Buffer many rows."""
        for row in rows:
            self.write_row(row)

    def _flush_stripe(self) -> None:
        if self._builder is not None:
            row_count = self._builder.n_rows
            pending = self._builder.build()
            self._builder = StripeColumnarBuilder(self.schema, self.options)
        else:
            row_count = len(self._buffer)
            pending = _encode_map_stripe(self._buffer)
            self._buffer = []
        infos = []
        for stream in pending:
            offset = len(self._data)
            self._data.extend(stream.payload)
            infos.append(
                StreamInfo(
                    stream.feature_id,
                    stream.kind,
                    offset,
                    len(stream.payload),
                    checksum=zlib.crc32(stream.payload),
                )
            )
        self._stripes.append(StripeMeta(row_count, tuple(infos)))

    def close(self) -> DwrfFile:
        """Flush any partial stripe and return the finished file."""
        if self._closed:
            raise FormatError("writer already closed")
        if self._pending_rows():
            self._flush_stripe()
        self._closed = True
        footer = FileFooter(
            options=self.options,
            feature_ids=tuple(self.schema.feature_ids()),
            stripes=self._stripes,
            data_length=len(self._data),
        )
        footer.validate()
        return DwrfFile(bytes(self._data), footer)


def write_table_partition(
    rows: Iterable[Row], schema: TableSchema, options: EncodingOptions | None = None
) -> DwrfFile:
    """Convenience: encode an iterable of rows into one file."""
    writer = DwrfWriter(schema, options)
    writer.write_rows(rows)
    return writer.close()
