"""Low-level stream codecs: varint, zigzag, float packing, sealing.

DWRF stripes are made of compressed and (in production) encrypted
streams (Section 3.1.2).  We implement real codecs so that file sizes,
offsets, and I/O sizes downstream are genuine consequences of the data:

* integers: adaptive-width little-endian packing
* floats: little-endian float32 packing
* every stream is then sealed one way (:func:`seal`): zlib, then a
  keyed XOR "encryption" — not secure, but a real byte transformation
  so the datacenter-tax cost model charges for real byte volumes.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

from ..common.errors import FormatError

_XOR_KEY = bytes(range(251, 0, -7))  # fixed 36-byte rolling key
KEY_PERIOD = len(_XOR_KEY)
_XOR_KEY_ARRAY = np.frombuffer(_XOR_KEY, dtype=np.uint8)
# Pre-tiled key covering typical stripe payloads (whole periods, just
# under 1 MiB); slicing from index 0 preserves the rolling phase, larger
# payloads re-tile on demand.
_XOR_KEY_TILE = np.tile(_XOR_KEY_ARRAY, (1 << 20) // KEY_PERIOD)


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes small)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_varints(values: Iterable[int]) -> bytes:
    """LEB128-encode a sequence of signed integers (zigzag first).

    Used for small metadata (headers); bulk integer streams use the
    vectorized :func:`encode_ints` codec.
    """
    out = bytearray()
    for value in values:
        encoded = zigzag_encode(int(value))
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def encode_ints(values) -> bytes:
    """Vectorized bulk integer codec: adaptive-width little-endian pack.

    Values that fit int32 pack at 4 bytes each (one tag byte selects
    the width), otherwise int64 at 8.  Compression (zlib in
    :func:`seal`) then squeezes the redundant high bytes, so sizes stay
    realistic while encode/decode run at numpy speed.
    """
    array = np.asarray(values, dtype=np.int64)
    if array.size and (array.max(initial=0) > 2**31 - 1 or array.min(initial=0) < -(2**31)):
        return b"\x08" + array.astype("<i8").tobytes()
    return b"\x04" + array.astype("<i4").tobytes()


def decode_ints(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_ints`; returns an int64 array.

    Width-8 payloads decode without widening: the returned array is a
    read-only view over the stream bytes (``copy=False`` semantics), so
    callers that need to mutate must ``.copy()`` first — attempting an
    in-place write raises instead of silently corrupting the stream.
    """
    if not data:
        raise FormatError("empty integer stream")
    width = data[0]
    if width not in (4, 8):
        raise FormatError(f"unknown integer stream width {width}")
    if (len(data) - 1) % width:
        raise FormatError("integer stream length not a multiple of its width")
    if width == 4:
        # Widening copies anyway, so read past the tag byte in place.
        return np.frombuffer(data, dtype="<i4", offset=1).astype(np.int64)
    # The view sits on a copy that drops the tag byte, which aligns it:
    # arithmetic on an unaligned int64 array runs at about half speed.
    return np.frombuffer(data[1:], dtype="<i8").astype(np.int64, copy=False)


def pack_floats(values: Sequence[float]) -> bytes:
    """Pack floats as little-endian float32."""
    return np.asarray(values, dtype="<f4").tobytes()


def unpack_floats(data: bytes) -> np.ndarray:
    """Unpack little-endian float32 bytes into a (read-only) array."""
    if len(data) % 4:
        raise FormatError("float stream length not a multiple of 4")
    return np.frombuffer(data, dtype="<f4")


def pack_bitmap(bits: Sequence[bool]) -> bytes:
    """Pack booleans into a bitmap, LSB-first within each byte."""
    return np.packbits(np.asarray(bits, dtype=bool), bitorder="little").tobytes()


def unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    """Unpack *count* booleans from a bitmap into a bool array."""
    if count > len(data) * 8:
        raise FormatError("bitmap shorter than requested count")
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=count, bitorder="little"
    )
    return bits.view(bool)


def xor_in_place(buffer: np.ndarray) -> None:
    """Apply the cipher to a writable uint8 *buffer* where it lies.

    The key restarts at the buffer's first byte, so a buffer holds one
    sealed stream: :func:`seal` enciphers and :func:`unseal` deciphers
    through this one body (XOR is its own inverse).
    """
    for lo in range(0, buffer.size, _XOR_KEY_TILE.size):  # whole periods
        part = buffer[lo : lo + _XOR_KEY_TILE.size]
        np.bitwise_xor(part, _XOR_KEY_TILE[: part.size], out=part)


def seal(payload: bytes) -> bytes:
    """Apply the on-disk transformations: compression then encryption."""
    buffer = np.frombuffer(zlib.compress(payload, level=1), dtype=np.uint8).copy()
    xor_in_place(buffer)
    return buffer.tobytes()


def unseal(data: bytes) -> bytes:
    """Invert :func:`seal`: the one way a stream is opened."""
    buffer = np.frombuffer(data, dtype=np.uint8).copy()
    xor_in_place(buffer)
    try:
        return zlib.decompress(buffer)
    except zlib.error as exc:
        raise FormatError(f"corrupt compressed stream: {exc}") from exc
