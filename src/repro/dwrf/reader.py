"""DWRF file reader: projections, coalesced reads, and I/O accounting.

The reader is where the paper's storage-layer story plays out:

* With the **MAP** layout, any projection still fetches and decodes
  whole stripes (the "over read" problem, Section 7.5).
* With the **FLATTENED** layout the reader fetches only the streams of
  projected features — but those are small, scattered ranges (Table 6),
  which cripples HDD IOPS until **coalesced reads** merge nearby ranges
  into one I/O at the cost of some over-read bytes (Figure 10).

Every byte fetched goes through an :class:`IOTrace`, which downstream
storage models consume to compute seeks, IOPS, and throughput.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..common.errors import FormatError
from ..common.stats import DistributionSummary, summarize
from ..warehouse.row import Row
from ..warehouse.schema import FeatureType, TableSchema
from .layout import FileFooter, FileLayout, StripeMeta
from .stream import ROW_LEVEL, StreamKind
from .stripe import decode_flattened_feature, decode_labels, decode_map_stripe
from .writer import DwrfFile

Fetcher = Callable[[int, int], bytes]


@dataclass(frozen=True, slots=True)
class IORecord:
    """One physical read: placement plus how much of it was useful.

    Slotted: a serving worker issues tens of thousands of these per run.
    """

    offset: int
    length: int
    useful_bytes: int

    @property
    def overread_bytes(self) -> int:
        """Bytes fetched that no projected stream needed."""
        return self.length - self.useful_bytes


@dataclass
class IOTrace:
    """Accumulated physical I/O issued by a reader.

    ``bytes_read`` (total bytes fetched from the device) and
    ``useful_bytes`` (bytes that belonged to projected streams) are
    running totals kept by :meth:`add`: reading them costs a long-lived
    worker the same on its millionth stripe as on its first.
    """

    records: list[IORecord] = field(default_factory=list)
    bytes_read: int = field(default=0, init=False)
    useful_bytes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        given, self.records = self.records, []
        self._extend(given)

    def add(self, offset: int, length: int, useful_bytes: int | None = None) -> None:
        """Record one read; *useful_bytes* defaults to the full length."""
        useful = length if useful_bytes is None else useful_bytes
        if not 0 <= useful <= length:
            raise FormatError("useful bytes out of range")
        self.records.append(IORecord(offset, length, useful))
        self.bytes_read += length
        self.useful_bytes += useful

    def merge(self, other: "IOTrace") -> None:
        """Append every read of *other*, in order, through :meth:`add`."""
        self._extend(other.records)

    def _extend(self, records: list[IORecord]) -> None:
        for record in records:
            self.add(record.offset, record.length, record.useful_bytes)

    @property
    def io_count(self) -> int:
        """Number of physical reads issued."""
        return len(self.records)

    @property
    def overread_fraction(self) -> float:
        """Fraction of fetched bytes that were over-read."""
        total = self.bytes_read
        return 0.0 if total == 0 else 1.0 - self.useful_bytes / total

    def io_sizes(self) -> list[int]:
        """Sizes of each physical read (the Table 6 distribution)."""
        return [record.length for record in self.records]

    def size_summary(self) -> DistributionSummary:
        """Distribution summary of I/O sizes."""
        return summarize(self.io_sizes())

    def seek_count(self) -> int:
        """Number of non-sequential transitions between reads.

        Reads issued at strictly increasing contiguous offsets count as
        one sequential run; every discontinuity costs a seek.  The first
        read always seeks.
        """
        seeks = 0
        expected = None
        for record in self.records:
            if record.offset != expected:
                seeks += 1
            expected = record.offset + record.length
        return seeks


@dataclass(frozen=True)
class ReadOptions:
    """Per-session read configuration.

    *projection* is the feature column filter (None = all features).
    *coalesce_window* merges needed ranges whose merged span does not
    exceed the window into single I/Os — 0 disables coalescing.  The
    production value is 1.25 MiB (Section 7.5).
    """

    projection: frozenset[int] | None = None
    coalesce_window: int = 0

    def __post_init__(self) -> None:
        if self.coalesce_window < 0:
            raise FormatError("coalesce_window cannot be negative")


@dataclass(frozen=True)
class _Range:
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def plan_reads(needed: Sequence[_Range], window: int) -> list[tuple[_Range, int]]:
    """Group needed byte ranges into physical reads.

    Returns ``(physical range, useful bytes)`` pairs.  With window 0
    each needed range becomes its own read.  Otherwise consecutive
    ranges merge greedily while the merged span stays within *window*.
    """
    if not needed:
        return []
    ordered = sorted(needed, key=lambda r: r.offset)
    reads: list[tuple[_Range, int]] = []
    start = ordered[0].offset
    end = ordered[0].end
    useful = ordered[0].length
    for rng in ordered[1:]:
        merged_end = max(end, rng.end)
        if window and merged_end - start <= window:
            end = merged_end
            useful += rng.length
        else:
            reads.append((_Range(start, end - start), useful))
            start, end, useful = rng.offset, rng.end, rng.length
    reads.append((_Range(start, end - start), useful))
    return reads


class DwrfReader:
    """Reads rows from one DWRF file through a byte-range fetcher."""

    def __init__(
        self,
        footer: FileFooter,
        fetcher: Fetcher,
        options: ReadOptions | None = None,
        trace: IOTrace | None = None,
    ) -> None:
        self.footer = footer
        self._fetch = fetcher
        self.options = options or ReadOptions()
        self.trace = trace if trace is not None else IOTrace()

    @classmethod
    def for_file(
        cls, dwrf_file: DwrfFile, options: ReadOptions | None = None
    ) -> "DwrfReader":
        """Reader over an in-memory file (no storage model)."""
        data = dwrf_file.data

        def fetch(offset: int, length: int) -> bytes:
            return data[offset : offset + length]

        return cls(dwrf_file.footer, fetch, options)

    # -- stream selection -------------------------------------------------

    def _needed_streams(self, stripe: StripeMeta) -> list:
        projection = self.options.projection
        infos = []
        for info in stripe.streams:
            if info.feature_id == ROW_LEVEL:
                infos.append(info)
            elif projection is None or info.feature_id in projection:
                infos.append(info)
        return infos

    # -- physical reads ----------------------------------------------------

    def _fetch_streams(self, stripe: StripeMeta) -> dict[tuple[int, StreamKind], bytes]:
        """Fetch the stripe's needed streams, honoring coalescing."""
        needed = self._needed_streams(stripe)
        ranges = [_Range(info.offset, info.length) for info in needed]
        window = self.options.coalesce_window
        blob: dict[int, bytes] = {}
        for physical, useful in plan_reads(ranges, window):
            data = self._fetch(physical.offset, physical.length)
            if len(data) != physical.length:
                raise FormatError("short read from fetcher")
            self.trace.add(physical.offset, physical.length, useful)
            blob[physical.offset] = data

        # Slice each needed stream back out of the fetched spans,
        # verifying integrity against the footer's CRC.
        spans = sorted(blob.items())
        result: dict[tuple[int, StreamKind], bytes] = {}
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

    # -- row materialization -----------------------------------------------

    def read_stripe(self, index: int, schema: TableSchema) -> list[Row]:
        """Materialize rows of one stripe under the projection."""
        stripe = self.footer.stripes[index]
        payloads = self._fetch_streams(stripe)
        options = self.footer.options
        if options.layout is FileLayout.MAP:
            projection = (
                set(self.options.projection)
                if self.options.projection is not None
                else None
            )
            return decode_map_stripe(
                payloads[(ROW_LEVEL, StreamKind.LABEL)],
                payloads[(ROW_LEVEL, StreamKind.MAP_ROWS)],
                stripe.row_count,
                options,
                projection,
            )
        return self._decode_flattened(stripe, payloads, schema)

    def _decode_flattened(
        self,
        stripe: StripeMeta,
        payloads: dict[tuple[int, StreamKind], bytes],
        schema: TableSchema,
    ) -> list[Row]:
        options = self.footer.options
        labels = decode_labels(payloads[(ROW_LEVEL, StreamKind.LABEL)], options)
        rows = [Row(label=label) for label in labels.tolist()]
        projection = self.options.projection
        for fid in self.footer.feature_ids:
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
            decoded = decode_flattened_feature(
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
                for cursor, index in enumerate(present_indices):
                    rows[index].dense[fid] = values[cursor]
                continue
            # Row materialization is the deliberately-costly ablation
            # arm: flat arrays are cut back into per-row Python lists.
            offsets = decoded.present_offsets().tolist()
            flat = decoded.sparse_values.tolist()
            flat_scores = None if decoded.scores is None else decoded.scores.tolist()
            for cursor, index in enumerate(present_indices):
                lo, hi = offsets[cursor], offsets[cursor + 1]
                row = rows[index]
                row.sparse[fid] = flat[lo:hi]
                if flat_scores is not None:
                    row.scores[fid] = flat_scores[lo:hi]
        return rows

    def read_rows(self, schema: TableSchema) -> Iterator[Row]:
        """Iterate every row in the file under the projection."""
        for index in range(len(self.footer.stripes)):
            yield from self.read_stripe(index, schema)


def _slice_from_spans(
    spans: list[tuple[int, bytes]], offset: int, length: int
) -> bytes:
    """Extract ``[offset, offset+length)`` from fetched (offset, data) spans."""
    for span_offset, data in spans:
        if span_offset <= offset and offset + length <= span_offset + len(data):
            start = offset - span_offset
            return data[start : start + length]
    raise FormatError(f"range [{offset}, {offset + length}) not fetched")
