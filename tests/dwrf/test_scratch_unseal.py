"""The per-stripe scratch unseal against ``encoding.unseal``, stream by stream.

``DwrfReader._fetch_streams`` lays a stripe's sealed streams side by
side in one buffer, takes the cipher off all of them with one XOR and
inflates each from where it lies.  ``encoding.unseal`` — one payload in,
one payload out — is what it must agree with, for any stream lengths
(the key is 36 bytes long and its pre-tiled copy just under 1 MiB, so 0,
1, 35, 36, 37 and anything past the tile are where a phase slip would
show), for all four ``compress`` x ``encrypt`` combinations, and in the
words it refuses a damaged stream with.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import (
    DwrfReader,
    EncodingOptions,
    ReadOptions,
    encoding,
    write_table_partition,
)
from repro.dwrf.layout import FileFooter, StripeMeta
from repro.dwrf.stream import StreamInfo, StreamKind

from .oracles import oracle_fetch_planned_streams

KEY = encoding.KEY_PERIOD
TILE = encoding._XOR_KEY_TILE.size
EDGE_LENGTHS = (0, 1, KEY - 1, KEY, KEY + 1, 2 * KEY - 1, 2 * KEY, 2 * KEY + 1)
COMBINATIONS = [
    (compress, encrypt) for compress in (True, False) for encrypt in (True, False)
]


def synthetic_stripe(sealed_streams, gaps, compress, encrypt, checksums=True):
    """A one-stripe file whose streams are *sealed_streams*, each after
    ``gaps[i]`` bytes nothing needs (what a coalesced read over-reads)."""
    data = bytearray()
    infos = []
    for index, (sealed, gap) in enumerate(zip(sealed_streams, gaps)):
        data += b"\xa5" * gap
        infos.append(
            StreamInfo(
                index,
                StreamKind.PRESENCE,
                len(data),
                len(sealed),
                zlib.crc32(sealed) if checksums else 0,
            )
        )
        data += sealed
    footer = FileFooter(
        EncodingOptions(compress=compress, encrypt=encrypt),
        tuple(range(len(infos))),
        [StripeMeta(1, tuple(infos))],
        len(data),
    )
    return footer, bytes(data)


def reader_over(footer, data, window):
    return DwrfReader(
        footer, lambda offset, length: data[offset : offset + length],
        ReadOptions(None, window),
    )


def outcome(call):
    """What *call* returned, or the words it refused with."""
    try:
        return call()
    except FormatError as refusal:
        return str(refusal)


def stream_by_stream(sealed_streams, compress, encrypt):
    return [
        encoding.unseal(sealed, compress=compress, encrypt=encrypt)
        for sealed in sealed_streams
    ] + [None]


lengths = st.sampled_from(EDGE_LENGTHS) | st.integers(0, 5 * KEY)


@settings(deadline=None)
@given(
    st.lists(st.tuples(lengths, st.integers(0, 40)), min_size=1, max_size=12),
    st.sampled_from(COMBINATIONS),
    st.sampled_from((0, 64, 1_310_720)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_scratch_unseal_matches_unseal_stream_by_stream(
    shape, combination, window, sealed_lengths, seed
):
    """*sealed_lengths* picks whether the drawn lengths are the payloads'
    or the sealed streams' own — the latter (raw bytes that were never
    sealed) reach every edge length under compression too, where both
    sides must then refuse the first stream that does not inflate in the
    same words."""
    compress, encrypt = combination
    rng = np.random.default_rng(seed)
    blobs = [rng.bytes(length) for length, _ in shape]
    sealed_streams = (
        blobs
        if sealed_lengths
        else [encoding.seal(b, compress=compress, encrypt=encrypt) for b in blobs]
    )
    footer, data = synthetic_stripe(
        sealed_streams, [gap for _, gap in shape], compress, encrypt
    )
    reader = reader_over(footer, data, window)
    expected = outcome(lambda: stream_by_stream(sealed_streams, compress, encrypt))
    for _ in range(2):  # the second pass reuses the scratch
        assert outcome(lambda: reader._fetch_streams(reader._plan(0))) == expected
    if not sealed_lengths:
        assert expected[:-1] == blobs
    needed = sum(len(sealed) for sealed in sealed_streams)
    assert reader.trace.useful_bytes == 2 * needed
    assert needed <= reader._scratch.size <= needed + (KEY - 1) * len(shape)


@pytest.mark.parametrize("compress, encrypt", COMBINATIONS)
@pytest.mark.parametrize(
    "sizes",
    [
        (TILE + KEY + 1,),  # one stream longer than the key tile
        (TILE - 5, 3 * KEY + 1),  # the second starts just short of the tile's end
        (400_000, 0, 400_000, 1, 400_000, KEY),  # the tile ends mid-stream
    ],
)
def test_streams_past_the_key_tile_unseal_alike(sizes, compress, encrypt):
    rng = np.random.default_rng(len(sizes))
    blobs = [rng.bytes(size) for size in sizes]  # incompressible: sealed ≈ size
    sealed_streams = [
        encoding.seal(blob, compress=compress, encrypt=encrypt) for blob in blobs
    ]
    assert sum(map(len, sealed_streams)) > TILE
    footer, data = synthetic_stripe(
        sealed_streams, [7] * len(sizes), compress, encrypt
    )
    reader = reader_over(footer, data, window=0)
    assert reader._fetch_streams(reader._plan(0)) == blobs + [None]
    assert stream_by_stream(sealed_streams, compress, encrypt) == blobs + [None]


@pytest.mark.parametrize("compress, encrypt", COMBINATIONS)
@pytest.mark.parametrize("window", [0, 64, 1_310_720])
@pytest.mark.parametrize("checksums", [True, False])
def test_one_flipped_byte_is_refused_naming_the_same_stream(
    compress, encrypt, window, checksums
):
    """With checksums the CRC names the stream; without, a compressed
    stream fails to inflate in ``unseal``'s words and an uncompressed
    one is delivered damaged — by both bodies alike."""
    rng = np.random.default_rng(9)
    blobs = [rng.bytes(length) * 3 for length in (5, KEY, 2 * KEY + 1, 90)]
    sealed_streams = [
        encoding.seal(blob, compress=compress, encrypt=encrypt) for blob in blobs
    ]
    footer, data = synthetic_stripe(
        sealed_streams, [3, 0, 20, 9], compress, encrypt, checksums
    )
    for info in footer.stripes[0].streams:
        damaged = bytearray(data)
        damaged[info.offset + 1] ^= 0xFF
        damaged = bytes(damaged)
        ours_reader = reader_over(footer, damaged, window)
        theirs_reader = reader_over(footer, damaged, window)
        ours = outcome(lambda: ours_reader._fetch_streams(ours_reader._plan(0)))
        theirs = outcome(
            lambda: oracle_fetch_planned_streams(theirs_reader, theirs_reader._plan(0))
        )
        assert ours == theirs
        if checksums:
            assert f"({info.feature_id}, presence) at offset {info.offset}" in ours
        elif compress:
            assert ours.startswith("corrupt compressed stream")
        else:
            assert ours != blobs + [None]


# -- what the scratch may and may not do ---------------------------------------


@pytest.mark.parametrize("encrypt", [True, False])
def test_arrays_of_one_stripe_survive_reading_the_next(small_dataset, encrypt):
    """Uncompressed payloads are copied out of the scratch, so nothing a
    caller holds is rewritten when the reader moves on."""
    schema, rows = small_dataset
    dwrf_file = write_table_partition(
        rows, schema, EncodingOptions(stripe_rows=64, compress=False, encrypt=encrypt)
    )
    reader = DwrfReader.for_file(dwrf_file, ReadOptions(None, 1 << 20))

    def arrays(decoded):
        labels, features = decoded
        return [labels] + [
            array
            for feature in features.values()
            for array in (
                feature.presence,
                feature.dense_values,
                feature.lengths,
                feature.sparse_values,
                feature.scores,
            )
            if array is not None
        ]

    held = arrays(reader.decode_stripe(0, schema))
    before = [array.tobytes() for array in held]
    assert len(held) > 20
    for index in range(1, len(dwrf_file.footer.stripes)):
        reader.decode_stripe(index, schema)
    assert [array.tobytes() for array in held] == before
    for array in held:
        assert not np.shares_memory(array, reader._scratch)


@pytest.mark.parametrize("window", [0, 512, 1_310_720])
def test_scratch_is_no_larger_than_the_largest_stripe_needs(small_dataset, window):
    schema, rows = small_dataset
    dwrf_file = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
    keep = frozenset(schema.feature_ids()[::2])
    reader = DwrfReader.for_file(dwrf_file, ReadOptions(keep, window))
    assert reader._scratch.size == 0  # nothing held before the first read
    needs = []  # per stripe: (needed bytes, needed streams)
    stripes = dwrf_file.footer.stripes
    # Last stripe (the short one) first, so the scratch has to grow.
    for index in reversed(range(len(stripes))):
        needed = [
            info.length
            for info in stripes[index].streams
            if info.feature_id == -1 or info.feature_id in keep
        ]
        needs.append((sum(needed), len(needed)))
        reader.decode_stripe(index, schema)
        most_bytes, n_streams = max(needs)
        assert most_bytes <= reader._scratch.size <= most_bytes + (KEY - 1) * n_streams
    assert needs[0] < max(needs)
    # A second pass over the file grows nothing.
    size = reader._scratch.size
    for index in range(len(stripes)):
        reader.decode_stripe(index, schema)
    assert reader._scratch.size == size
