"""Stream codecs: varints, bulk ints, floats, bitmaps, seal/unseal."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import encoding
from repro.dwrf.stripe import _split_varint_header

from .oracles import decode_varints, oracle_split_varint_header


def _outcome(read, payload):
    try:
        return read(payload)
    except FormatError as exc:
        return ("refused", str(exc))


# A leading varint as the writer emits it, one at the length limit or
# just past it (9, 10 or 11 continuation bytes), a truncated one (no
# terminating byte) or any bytes; then any rest.
_headers = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62).map(
        lambda value: encoding.encode_varints([value])
    ),
    st.integers(min_value=9, max_value=11).map(lambda n: b"\xff" * n + b"\x01"),
    st.binary(max_size=12).map(lambda data: bytes(b | 0x80 for b in data)),
    st.binary(max_size=12),
)


class TestVarints:
    def test_round_trip_basic(self):
        values = [0, 1, -1, 127, 128, -128, 300, 10**9, -(10**9)]
        assert decode_varints(encoding.encode_varints(values)) == values

    def test_empty(self):
        assert decode_varints(b"") == []

    def test_truncated_stream_rejected(self):
        data = encoding.encode_varints([300])
        with pytest.raises(FormatError):
            decode_varints(data[:-1])

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=50))
    def test_round_trip_property(self, values):
        assert decode_varints(encoding.encode_varints(values)) == values

    @given(_headers, st.binary(max_size=8))
    def test_stripe_header_read_matches_the_list_decoder(self, header, rest):
        payload = header + rest
        assert _outcome(_split_varint_header, payload) == _outcome(
            oracle_split_varint_header, payload
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"", "missing stripe header"),
            (b"\x80\x81", "missing stripe header"),
            (b"\xff" * 10 + b"\x01", "varint too long"),
        ],
    )
    def test_stripe_header_refusals(self, payload, message):
        with pytest.raises(FormatError, match=message):
            _split_varint_header(payload)
        with pytest.raises(FormatError, match=message):
            oracle_split_varint_header(payload)

    def test_zigzag_small_magnitudes_small(self):
        assert encoding.zigzag_encode(0) == 0
        assert encoding.zigzag_encode(-1) == 1
        assert encoding.zigzag_encode(1) == 2
        for value in (-5, 5, -1000, 1000):
            assert encoding.zigzag_decode(encoding.zigzag_encode(value)) == value


class TestBulkInts:
    def test_round_trip_small(self):
        values = [0, 1, -7, 2**30]
        out = encoding.decode_ints(encoding.encode_ints(values))
        assert out.tolist() == values

    def test_wide_values_use_8_bytes(self):
        data = encoding.encode_ints([2**40])
        assert data[0] == 8
        assert encoding.decode_ints(data).tolist() == [2**40]

    def test_narrow_values_use_4_bytes(self):
        data = encoding.encode_ints([1, 2, 3])
        assert data[0] == 4
        assert len(data) == 1 + 12

    def test_empty_array(self):
        assert encoding.decode_ints(encoding.encode_ints([])).size == 0

    def test_empty_stream_rejected(self):
        with pytest.raises(FormatError):
            encoding.decode_ints(b"")

    def test_bad_width_rejected(self):
        with pytest.raises(FormatError):
            encoding.decode_ints(b"\x05abcd")

    def test_misaligned_payload_rejected(self):
        with pytest.raises(FormatError):
            encoding.decode_ints(b"\x04abc")

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=100))
    def test_round_trip_property(self, values):
        out = encoding.decode_ints(encoding.encode_ints(values))
        assert out.tolist() == values

    def test_wide_decode_is_zero_copy_and_write_protected(self):
        # Width-8 payloads decode without copying: the result is a
        # read-only int64 view over the stream bytes, so a caller
        # cannot silently corrupt the (shared) buffer — writes raise.
        data = encoding.encode_ints([2**40, -(2**40)])
        out = encoding.decode_ints(data)
        assert out.dtype == np.int64
        assert out.tolist() == [2**40, -(2**40)]
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1
        # Callers that need mutation take an explicit, writable copy.
        mutable = out.copy()
        mutable[0] = 7
        assert mutable.tolist() == [7, -(2**40)]
        assert out.tolist() == [2**40, -(2**40)]

    def test_narrow_decode_still_widens_to_int64(self):
        out = encoding.decode_ints(encoding.encode_ints([1, 2, 3]))
        assert out.dtype == np.int64


class TestFloats:
    def test_round_trip_float32_exact(self):
        values = [0.0, 1.5, -2.25, 1024.0]
        out = encoding.unpack_floats(encoding.pack_floats(values))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.dtype("<f4")
        assert out.tolist() == values

    def test_precision_is_float32(self):
        [value] = encoding.unpack_floats(encoding.pack_floats([1/3])).tolist()
        assert value == pytest.approx(1/3, rel=1e-6)
        assert value != 1/3  # float64 third does not survive

    def test_misaligned_rejected(self):
        with pytest.raises(FormatError):
            encoding.unpack_floats(b"abc")


class TestBitmaps:
    def test_round_trip(self):
        bits = [True, False, True, True, False, False, True, False, True]
        packed = encoding.pack_bitmap(bits)
        out = encoding.unpack_bitmap(packed, len(bits))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.bool_
        assert out.tolist() == bits

    def test_partial_byte(self):
        packed = encoding.pack_bitmap([True, False, True])
        assert len(packed) == 1
        assert encoding.unpack_bitmap(packed, 3).tolist() == [True, False, True]

    def test_count_beyond_data_rejected(self):
        with pytest.raises(FormatError):
            encoding.unpack_bitmap(b"\x01", 9)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_round_trip_property(self, bits):
        packed = encoding.pack_bitmap(bits)
        assert encoding.unpack_bitmap(packed, len(bits)).tolist() == bits


class TestSeal:
    def test_round_trip_all_modes(self):
        payload = b"the quick brown fox" * 10
        for compress in (True, False):
            for encrypt in (True, False):
                sealed = encoding.seal(payload, compress=compress, encrypt=encrypt)
                assert encoding.unseal(sealed, compress=compress, encrypt=encrypt) == payload

    def test_compression_shrinks_redundancy(self):
        payload = b"a" * 10_000
        assert len(encoding.seal(payload)) < len(payload) // 10

    def test_encryption_changes_bytes(self):
        payload = b"secret features"
        sealed = encoding.seal(payload, compress=False, encrypt=True)
        assert sealed != payload
        assert len(sealed) == len(payload)

    def test_corrupt_stream_detected(self):
        sealed = encoding.seal(b"payload bytes here")
        corrupted = bytes([sealed[0] ^ 0xFF]) + sealed[1:]
        with pytest.raises(FormatError):
            encoding.unseal(corrupted)

    @given(st.binary(max_size=500))
    def test_seal_round_trip_property(self, payload):
        assert encoding.unseal(encoding.seal(payload)) == payload

    def test_vectorized_cipher_matches_per_byte_reference(self):
        data = bytes(range(256)) * 3 + b"tail"
        key = encoding._XOR_KEY
        reference = bytes(b ^ key[i % len(key)] for i, b in enumerate(data))
        assert encoding._xor_cipher(data) == reference
        assert encoding._xor_cipher(b"") == b""
