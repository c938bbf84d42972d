"""DWRF file reader: projections, coalesced reads, and I/O accounting.

The reader is where the paper's storage-layer story plays out:

* With the **MAP** layout a reader fetches and decodes whole stripes,
  every feature of every row (the "over read" problem, Section 7.5), so
  it refuses a projection rather than pretend to apply one.
* With the **FLATTENED** layout the reader fetches only the streams of
  projected features — but those are small, scattered ranges (Table 6),
  which cripples HDD IOPS until **coalesced reads** merge nearby ranges
  into one I/O at the cost of some over-read bytes (Figure 10).

Every byte fetched goes through an :class:`IOTrace`, which downstream
storage models consume to compute seeks, IOPS, and throughput.

A stripe costs one pass.  What depends only on the footer and the
:class:`ReadOptions` — which streams are needed, how :func:`plan_reads`
groups them into physical reads, where each stream sits inside its
read, the reads' :class:`IORecord` s with their totals, and which
payloads make up each projected feature — is worked out on the first
read of a stripe and kept on the reader.  What depends on bytes is one
loop, :meth:`DwrfReader._fetch_verified`: fetch each planned read,
check its length, check every needed stream against its CRC, one trace
extension; it hands back the verified sealed streams.  That loop is the
whole of :meth:`DwrfReader.verify_stripe`, for a caller that still
holds what the stripe decodes to and needs only the reads made, charged
and proven unchanged.  :meth:`DwrfReader.decode_stripe` (which the row
arm, :meth:`DwrfReader.read_stripe`, and the DPP worker's columnar arm
consume) opens each verified stream with :func:`encoding.unseal`, in
plan order, once the whole stripe is verified, then decodes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..common.errors import FormatError
from ..common.stats import DistributionSummary, summarize
from ..warehouse.row import Row
from ..warehouse.schema import FeatureType, TableSchema
from . import encoding
from .layout import FileFooter, FileLayout
from .stream import ROW_LEVEL, StreamKind
from .stripe import DecodedFeature, decode_flattened_feature, decode_map_stripe
from .writer import DwrfFile

Fetcher = Callable[[int, int], bytes]


class IORecord(NamedTuple):
    """One physical read: placement plus how much of it was useful.

    A tuple: a serving worker issues tens of thousands of these per run.
    """

    offset: int
    length: int
    useful_bytes: int


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

    def extend(
        self, records: Sequence[IORecord], bytes_read: int, useful_bytes: int
    ) -> None:
        """Append *records*, whose totals the caller already holds (a
        stripe plan's reads): one step however many reads there are."""
        self.records.extend(records)
        self.bytes_read += bytes_read
        self.useful_bytes += useful_bytes

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
    """A byte range; a planned read also names the ranges it covers."""

    offset: int
    length: int
    members: tuple = ()


def plan_reads(needed: Sequence, window: int) -> list[tuple[_Range, int]]:
    """Group needed byte ranges into physical reads.

    *needed* is anything with ``offset``, ``length`` and ``end``.
    Returns ``(physical range, useful bytes)`` pairs in offset order;
    each physical range lists the needed ranges it covers as
    ``members``.  With window 0 each needed range becomes its own read.
    Otherwise consecutive ranges merge greedily while the merged span
    stays within *window*.
    """
    if not needed:
        return []
    ordered = sorted(needed, key=attrgetter("offset"))
    reads: list[tuple[_Range, int]] = []
    first = ordered[0]
    start, end, useful, members = first.offset, first.end, first.length, [first]
    for rng in ordered[1:]:
        merged_end = max(end, rng.end)
        if window and merged_end - start <= window:
            end = merged_end
            useful += rng.length
            members.append(rng)
        else:
            reads.append((_Range(start, end - start, tuple(members)), useful))
            start, end, useful, members = rng.offset, rng.end, rng.length, [rng]
    reads.append((_Range(start, end - start, tuple(members)), useful))
    return reads


class _StripePlan(NamedTuple):
    """How one stripe is read under one reader's options.

    ``reads`` are the physical reads in issue order, each ``(offset,
    length, members)`` with a member ``(start, end, StreamInfo)``
    locating one needed stream inside the read; ``records`` are the
    same reads as the :class:`IORecord` s the trace gains, with their
    totals in ``bytes_read`` and ``useful_bytes``.  Members in that
    order number the stripe's payloads; ``labels``, ``map_rows`` and
    the entries of ``features`` are positions in that numbering, with
    ``-1`` (the payload list ends in a ``None``) for a stream the
    stripe does not have.  ``features`` holds, per projected feature
    present in the stripe and in the footer's feature order,
    ``(feature_id, presence, dense values, lengths, sparse values,
    scores)``.  Nothing here grows with the streams' bytes.
    """

    reads: tuple
    records: tuple
    bytes_read: int
    useful_bytes: int
    labels: int
    map_rows: int
    features: tuple


_FEATURE_KINDS = (
    StreamKind.PRESENCE,
    StreamKind.DENSE_VALUES,
    StreamKind.SPARSE_LENGTHS,
    StreamKind.SPARSE_VALUES,
    StreamKind.SCORE_VALUES,
)


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
        if self.options.projection is not None and footer.options.layout is FileLayout.MAP:
            raise FormatError("a MAP-layout file is read whole: it takes no projection")
        self.trace = trace if trace is not None else IOTrace()
        # One plan per stripe, built on its first read.  The footer and
        # the options are immutable, so a plan is never invalidated.
        self._plans: list[_StripePlan | None] = [None] * len(footer.stripes)

    @classmethod
    def for_file(
        cls, dwrf_file: DwrfFile, options: ReadOptions | None = None
    ) -> "DwrfReader":
        """Reader over an in-memory file (no storage model)."""
        data = dwrf_file.data

        def fetch(offset: int, length: int) -> bytes:
            return data[offset : offset + length]

        return cls(dwrf_file.footer, fetch, options)

    # -- planning ------------------------------------------------------------

    def _plan(self, index: int) -> _StripePlan:
        plan = self._plans[index]
        if plan is None:
            plan = self._plans[index] = self._plan_stripe(index)
        return plan

    def _plan_stripe(self, index: int) -> _StripePlan:
        projection = self.options.projection
        needed = [
            info
            for info in self.footer.stripes[index].streams
            if info.feature_id == ROW_LEVEL
            or projection is None
            or info.feature_id in projection
        ]
        reads, records = [], []
        positions: dict[tuple[int, StreamKind], int] = {}
        n_streams = 0
        for physical, useful in plan_reads(needed, self.options.coalesce_window):
            members = []
            for info in physical.members:
                # The first stream in file order wins a repeated key.
                positions.setdefault((info.feature_id, info.kind), n_streams)
                n_streams += 1
                start = info.offset - physical.offset
                members.append((start, start + info.length, info))
            reads.append((physical.offset, physical.length, tuple(members)))
            records.append(IORecord(physical.offset, physical.length, useful))
        features = []
        for fid in self.footer.feature_ids:
            if projection is not None and fid not in projection:
                continue
            if (fid, StreamKind.PRESENCE) not in positions:
                continue  # feature absent from this stripe
            features.append(
                (fid, *(positions.get((fid, kind), -1) for kind in _FEATURE_KINDS))
            )
        return _StripePlan(
            tuple(reads),
            tuple(records),
            sum(record.length for record in records),
            sum(record.useful_bytes for record in records),
            positions.get((ROW_LEVEL, StreamKind.LABEL), -1),
            positions.get((ROW_LEVEL, StreamKind.MAP_ROWS), -1),
            tuple(features),
        )

    # -- physical reads ----------------------------------------------------

    def _fetch_verified(self, plan: _StripePlan) -> list[bytes]:
        """Fetch the planned reads and verify each needed stream.

        Every read is length-checked and every needed stream checked
        against its CRC while its read is in hand.  Returns the verified
        sealed streams in plan order, as slices of the fetched reads;
        over-read bytes are fetched and accounted, never checked.  The
        trace gains the stripe's reads in one step once all are fetched
        — or, when a fetch or a checksum fails, the reads served by then.
        """
        fetch = self._fetch
        crc32 = zlib.crc32
        streams = []
        fetched = 0
        try:
            for offset, length, members in plan.reads:
                data = fetch(offset, length)
                if len(data) != length:
                    raise FormatError("short read from fetcher")
                fetched += 1
                for start, end, info in members:
                    sealed = data[start:end]
                    if crc32(sealed) != info.checksum:
                        raise FormatError(
                            f"checksum mismatch in stream ({info.feature_id}, "
                            f"{info.kind.value}) at offset {info.offset}: "
                            "corrupt replica or torn read"
                        )
                    streams.append(sealed)
        except BaseException:
            for record in plan.records[:fetched]:
                self.trace.add(*record)
            raise
        self.trace.extend(plan.records, plan.bytes_read, plan.useful_bytes)
        return streams

    def _open_stripe(self, plan: _StripePlan) -> list[bytes | None]:
        """The stripe's payloads in plan order plus a trailing ``None``:
        every needed stream fetched and verified, then each opened by
        :func:`encoding.unseal`."""
        payloads: list[bytes | None] = [
            encoding.unseal(sealed) for sealed in self._fetch_verified(plan)
        ]
        payloads.append(None)
        return payloads

    def verify_stripe(self, index: int) -> None:
        """Make, charge and verify one stripe's reads; decode nothing.

        Storage and the trace see exactly what :meth:`decode_stripe`
        shows them, and the same damage is refused with the same words
        at the same read.
        """
        self._fetch_verified(self._plan(index))

    # -- decode ------------------------------------------------------------

    def decode_stripe(
        self, index: int, schema: TableSchema
    ) -> tuple[np.ndarray, dict[int, DecodedFeature]]:
        """Read one flattened stripe into flat arrays.

        Returns the labels and, per projected feature the stripe holds
        (in the footer's feature order), its :class:`DecodedFeature`.
        """
        plan = self._plan(index)
        payloads = self._open_stripe(plan)
        row_count = self.footer.stripes[index].row_count
        features: dict[int, DecodedFeature] = {}
        for fid, presence, dense, lengths, sparse, scores in plan.features:
            ftype = schema.get(fid).ftype
            features[fid] = decode_flattened_feature(
                ftype,
                row_count,
                payloads[presence],
                payloads[dense if ftype is FeatureType.DENSE else sparse],
                payloads[lengths],
                payloads[scores],
            )
        return encoding.unpack_floats(payloads[plan.labels]), features

    # -- row materialization -----------------------------------------------

    def read_stripe(self, index: int, schema: TableSchema) -> list[Row]:
        """Materialize rows of one stripe under the projection."""
        if self.footer.options.layout is FileLayout.MAP:
            plan = self._plan(index)
            payloads = self._open_stripe(plan)
            return decode_map_stripe(
                payloads[plan.labels],
                payloads[plan.map_rows],
                self.footer.stripes[index].row_count,
            )
        labels, features = self.decode_stripe(index, schema)
        rows = [Row(label=label) for label in labels.tolist()]
        for fid, decoded in features.items():
            present_indices = np.flatnonzero(decoded.presence)
            if decoded.dense_values is not None:
                values = decoded.dense_values.tolist()
                for cursor, row_index in enumerate(present_indices):
                    rows[row_index].dense[fid] = values[cursor]
                continue
            # Row materialization is the deliberately-costly ablation
            # arm: flat arrays are cut back into per-row Python lists.
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

    def read_rows(self, schema: TableSchema) -> Iterator[Row]:
        """Iterate every row in the file under the projection."""
        for index in range(len(self.footer.stripes)):
            yield from self.read_stripe(index, schema)
