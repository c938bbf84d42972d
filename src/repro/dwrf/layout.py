"""File-level metadata: stripe directory and footer.

A DWRF file is a sequence of stripes followed by a footer that records,
for every stripe, its row count and the placement of each stream.  The
footer is what lets a reader fetch only the streams for its feature
projection (feature filtering at the storage layer, Section 3.1.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..common.errors import FormatError
from .stream import StreamInfo


class FileLayout(enum.Enum):
    """Physical organization of feature data (Figure 10)."""

    MAP = "map"              # regular map columns: whole rows read together
    FLATTENED = "flattened"  # feature flattening: per-feature streams


@dataclass(frozen=True)
class EncodingOptions:
    """How rows are laid out on disk; every stream is sealed one way
    (:func:`~repro.dwrf.encoding.seal`: zlib, then the XOR cipher).

    ``layout`` picks map or flattened columns (Figure 10).
    ``stripe_rows`` is the number of rows per stripe — the "large
    stripes" optimization (Table 12, LS) raises it.  ``feature_order``
    optionally fixes the on-disk ordering of per-feature streams within
    each stripe; feature reordering (FR) passes popularity order here,
    each feature at most once.
    """

    layout: FileLayout = FileLayout.FLATTENED
    stripe_rows: int = 256
    feature_order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.stripe_rows <= 0:
            raise FormatError("stripe_rows must be positive")
        order = self.feature_order or ()
        if len(set(order)) != len(order):
            repeated = sorted({fid for fid in order if order.count(fid) > 1})
            raise FormatError(f"feature_order repeats features {repeated}")


@dataclass(frozen=True)
class StripeMeta:
    """Footer entry for one stripe."""

    row_count: int
    streams: tuple[StreamInfo, ...]


@dataclass
class FileFooter:
    """Complete file metadata, kept out-of-band from the data bytes.

    Production DWRF serializes the footer at the end of the file; we
    keep it as a Python object because every experiment treats footer
    reads as cached metadata (masters/readers hold footers in memory).
    """

    options: EncodingOptions
    feature_ids: tuple[int, ...]
    stripes: list[StripeMeta] = field(default_factory=list)
    data_length: int = 0

    @property
    def row_count(self) -> int:
        """Total rows across all stripes."""
        return sum(stripe.row_count for stripe in self.stripes)

    def validate(self) -> None:
        """Check structural invariants: contiguous, ordered, in-bounds."""
        cursor = 0
        for stripe in self.stripes:
            for info in stripe.streams:
                if info.offset != cursor:
                    raise FormatError(
                        f"stream at {info.offset} expected at {cursor}"
                    )
                if info.length < 0:
                    raise FormatError("negative stream length")
                cursor = info.end
        if cursor != self.data_length:
            raise FormatError(
                f"footer covers {cursor} bytes but file has {self.data_length}"
            )
