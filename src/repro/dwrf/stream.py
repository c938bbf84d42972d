"""Streams: the atomic physical unit of a DWRF stripe.

Each stripe is divided into streams (Section 3.1.2).  In the flattened
layout every feature contributes its own presence/value/length/score
streams; in the regular map layout a stripe holds a handful of large
row-oriented streams.  A stream knows its logical identity and, once
written, its physical placement within the file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class StreamKind(enum.Enum):
    """Logical role of a stream within a stripe."""

    LABEL = "label"
    PRESENCE = "presence"
    DENSE_VALUES = "dense_values"
    SPARSE_LENGTHS = "sparse_lengths"
    SPARSE_VALUES = "sparse_values"
    SCORE_VALUES = "score_values"
    # Regular (non-flattened) map layout: whole-row encodings.
    MAP_ROWS = "map_rows"


# Feature ID used for row-level streams (label, map rows).
ROW_LEVEL = -1


@dataclass(frozen=True)
class StreamInfo:
    """Footer metadata describing one written stream.

    ``checksum`` is the CRC-32 of the sealed stream bytes; readers
    verify it on every fetch, so silent corruption anywhere between
    the writer and a storage replica is detected at read time.  Every
    value is a CRC, 0 included: no stream is read unverified.
    """

    feature_id: int
    kind: StreamKind
    offset: int
    length: int
    checksum: int

    @property
    def end(self) -> int:
        """Offset one past the stream's final byte."""
        return self.offset + self.length


@dataclass
class PendingStream:
    """A stream that has been encoded but not yet placed in the file."""

    feature_id: int
    kind: StreamKind
    payload: bytes
