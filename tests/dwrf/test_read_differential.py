"""Differential tests: the one-pass read path against the bodies it replaced.

``DwrfReader`` plans a stripe once, then fetches, verifies, unseals and
decodes it in one pass that the row arm and the DPP worker's columnar
arm share; the oracles in ``oracles.py`` are the per-call, per-stream,
per-consumer bodies that did the same work before.  Both must produce
the same arrays byte for byte, the same rows, the same ``IOTrace``
records in the same order and the same storage-node accounting, and
refuse the same damaged inputs with the same words.

The byte-dependent half of that pass (``_open_stripe``: fetch and
verify the whole stripe, then ``encoding.unseal`` each stream) is also
held to the per-stream loop ``oracle_fetch_planned_streams``, which
unseals each stream as its read arrives: same payloads for any stream
lengths (the key is 36 bytes long and its pre-tiled copy just under
1 MiB, so 0, 1, 35, 36, 37 and anything past the tile are where a phase
slip would show), and the same refusal and ``IOTrace`` *after* a
refusal.
"""

import dataclasses
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FormatError
from repro.dpp import DppMaster, DppWorker, SessionSpec
from repro.dwrf import (
    DwrfFile,
    DwrfReader,
    EncodingOptions,
    FileLayout,
    ReadOptions,
    encoding,
    write_table_partition,
)
from repro.dwrf.layout import FileFooter, StripeMeta
from repro.dwrf.stream import StreamInfo, StreamKind
from repro.tectonic import TectonicFilesystem
from repro.transforms.batch import DenseColumn
from repro.warehouse import FeatureSpec, FeatureType, Row, TableSchema

from .oracles import (
    oracle_fetch_planned_streams,
    oracle_read_stripe,
    oracle_read_stripe_columnar,
    oracle_stream,
    oracle_unseal,
)

DENSE_IDS = (1, 2, 3)
SPARSE_IDS = (10, 11)
SCORED_IDS = (20, 21)
LOGGED_IDS = DENSE_IDS + SPARSE_IDS + SCORED_IDS
# In the schema but never logged: a projected ID with no stream anywhere.
SILENT_IDS = (4, 12, 22)
# Not even in the schema (the reader never asks the schema about it).
UNKNOWN_ID = 99
WINDOWS = (0, 48, 1_310_720)


def make_schema() -> TableSchema:
    schema = TableSchema("read_differential")
    for fid in (*DENSE_IDS, SILENT_IDS[0]):
        schema.add_feature(FeatureSpec(fid, f"d{fid}", FeatureType.DENSE))
    for fid in (*SPARSE_IDS, SILENT_IDS[1]):
        schema.add_feature(
            FeatureSpec(fid, f"s{fid}", FeatureType.SPARSE, avg_sparse_length=3)
        )
    for fid in (*SCORED_IDS, SILENT_IDS[2]):
        schema.add_feature(
            FeatureSpec(fid, f"w{fid}", FeatureType.SCORED_SPARSE, avg_sparse_length=3)
        )
    return schema


SCHEMA = make_schema()

# Wide enough that some value streams pack at 8 bytes and some at 4.
id_lists = st.lists(
    st.integers(min_value=-(2**50), max_value=2**50) | st.integers(0, 1000),
    max_size=5,
)
floats32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def tables(draw):
    """Rows at any coverage from 0 to 1: some features never appear,
    some appear in some stripes only, some log nothing but empty lists."""
    logged = draw(st.sets(st.sampled_from(LOGGED_IDS)))
    always_empty = draw(st.sets(st.sampled_from(SPARSE_IDS + SCORED_IDS)))
    coverage = {fid: draw(st.sampled_from((0.2, 0.6, 1.0))) for fid in sorted(logged)}
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        row = Row(label=float(draw(st.integers(0, 1))))
        for fid in sorted(logged):
            if draw(st.floats(0, 1, exclude_max=True)) >= coverage[fid]:
                continue
            if fid in DENSE_IDS:
                row.dense[fid] = draw(floats32)
                continue
            ids = [] if fid in always_empty else draw(id_lists)
            row.sparse[fid] = ids
            if fid in SCORED_IDS:
                row.scores[fid] = [draw(floats32) for _ in ids]
        rows.append(row)
    return rows


@st.composite
def encodings(draw, layouts=(FileLayout.FLATTENED,)):
    order = draw(st.none() | st.permutations(LOGGED_IDS + SILENT_IDS).map(tuple))
    return EncodingOptions(
        layout=draw(st.sampled_from(layouts)),
        stripe_rows=draw(st.sampled_from((1, 4, 7, 64))),
        feature_order=order,
    )


projections = st.none() | st.sets(
    st.sampled_from(LOGGED_IDS + SILENT_IDS + (UNKNOWN_ID,))
).map(frozenset)


def node_accounting(filesystem):
    return [
        (node.served.io_count, node.served.bytes_read, node.served.io_count)
        for node in filesystem.nodes
    ]


def stored(dwrf_file, chunk_bytes):
    filesystem = TectonicFilesystem(n_nodes=4, chunk_bytes=chunk_bytes)
    filesystem.create("f")
    filesystem.append("f", dwrf_file.data)
    return filesystem


def assert_same_column(ours, theirs):
    assert type(ours) is type(theirs)
    names = (
        ("values", "presence")
        if isinstance(ours, DenseColumn)
        else ("offsets", "values", "weights")
    )
    for name in names:
        a, b = getattr(ours, name), getattr(theirs, name)
        if a is None or b is None:
            assert a is b, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(deadline=None)
@given(
    tables(),
    encodings(),
    st.sets(st.sampled_from(LOGGED_IDS + SILENT_IDS), min_size=1).map(frozenset),
    st.sampled_from(WINDOWS),
    st.sampled_from((64, 1 << 20)),
)
def test_worker_columnar_arm_matches_the_oracle(
    rows, encoding_options, projection, window, chunk_bytes
):
    dwrf_file = write_table_partition(rows, SCHEMA, encoding_options)
    footers = {"f": dwrf_file.footer}
    ours_fs, theirs_fs = stored(dwrf_file, chunk_bytes), stored(dwrf_file, chunk_bytes)
    spec = SessionSpec(
        table_name=SCHEMA.table_name,
        partitions=("f",),
        projection=projection,
        coalesce_window=window,
    )
    worker = DppWorker("w0", DppMaster(spec, footers), ours_fs, SCHEMA, footers)
    theirs = DwrfReader(
        dwrf_file.footer, theirs_fs.fetcher("f"), ReadOptions(projection, window)
    )
    # Twice over the file: the second pass reads through kept plans.
    for index in 2 * list(range(len(dwrf_file.footer.stripes))):
        batch, n_values = worker._read_stripe_columnar(worker._reader("f"), index)
        expected, expected_values = oracle_read_stripe_columnar(
            theirs, index, projection, SCHEMA
        )
        assert n_values == expected_values
        assert batch.labels.tobytes() == expected.labels.tobytes()
        assert list(batch.columns) == list(expected.columns)
        for fid, column in batch.columns.items():
            assert_same_column(column, expected.columns[fid])
    assert worker.io_trace.records == theirs.trace.records
    assert node_accounting(ours_fs) == node_accounting(theirs_fs)
    assert ours_fs._replica_rr == theirs_fs._replica_rr
    assert len(worker._readers) == 1


def assert_same_rows(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.label == b.label
        # Insertion order too: a consumer iterating a row's maps must
        # see the features in the same order.
        assert list(a.dense.items()) == list(b.dense.items())
        assert list(a.sparse.items()) == list(b.sparse.items())
        assert list(a.scores.items()) == list(b.scores.items())


@settings(deadline=None)
@given(
    tables(),
    encodings(layouts=(FileLayout.FLATTENED, FileLayout.MAP)),
    projections,
    st.sampled_from(WINDOWS),
)
def test_read_stripe_matches_the_oracle_in_both_layouts(
    rows, encoding_options, projection, window
):
    dwrf_file = write_table_partition(rows, SCHEMA, encoding_options)
    if encoding_options.layout is FileLayout.MAP:
        projection = None  # a MAP file is read whole
    options = ReadOptions(projection, window)
    ours = DwrfReader.for_file(dwrf_file, options)
    theirs = DwrfReader.for_file(dwrf_file, options)
    for index in 2 * list(range(len(dwrf_file.footer.stripes))):
        assert_same_rows(
            ours.read_stripe(index, SCHEMA), oracle_read_stripe(theirs, index, SCHEMA)
        )
    assert ours.trace.records == theirs.trace.records
    assert ours.trace.seek_count() == theirs.trace.seek_count()


# -- damaged inputs ------------------------------------------------------------


def dense_sparse_scored_file(window=0):
    rows = [
        Row(
            label=float(i % 2),
            dense={1: i / 4},
            sparse={10: [i, i + 1], 20: [2**40 + i]},
            scores={20: [0.5]},
        )
        for i in range(9)
    ]
    options = EncodingOptions(stripe_rows=4)
    return write_table_partition(rows, SCHEMA, options), ReadOptions(None, window)


def refusals(make_reader, index=0):
    """The ``FormatError`` text of the read path and of its oracle, each
    reading stripe *index* through a fresh reader."""
    texts = []
    for read in (
        lambda reader: reader.read_stripe(index, SCHEMA),
        lambda reader: oracle_read_stripe(reader, index, SCHEMA),
    ):
        with pytest.raises(FormatError) as caught:
            read(make_reader())
        texts.append(str(caught.value))
    return texts


def with_streams(dwrf_file, edit):
    """The file under a footer whose every ``StreamInfo`` went through
    *edit* (which returns the stream to keep, or ``None`` to forget it)."""
    footer = dwrf_file.footer
    stripes = [
        StripeMeta(
            stripe.row_count,
            tuple(kept for info in stripe.streams if (kept := edit(info)) is not None),
        )
        for stripe in footer.stripes
    ]
    return dataclasses.replace(
        dwrf_file,
        footer=FileFooter(
            footer.options, footer.feature_ids, stripes, footer.data_length
        ),
    )


def with_stream_bytes(dwrf_file, feature_id, kind, remake):
    """The file with each (feature, kind) stream's sealed bytes replaced
    by ``remake(sealed)`` where they lay; the streams after it move, and
    every stream keeps a CRC of its new bytes."""
    data = bytearray()
    stripes = []
    for stripe in dwrf_file.footer.stripes:
        infos = []
        for info in stripe.streams:
            sealed = dwrf_file.data[info.offset : info.end]
            if (info.feature_id, info.kind) == (feature_id, kind):
                sealed = remake(sealed)
            infos.append(
                dataclasses.replace(
                    info,
                    offset=len(data),
                    length=len(sealed),
                    checksum=zlib.crc32(sealed),
                )
            )
            data += sealed
        stripes.append(StripeMeta(stripe.row_count, tuple(infos)))
    footer = dwrf_file.footer
    return dataclasses.replace(
        dwrf_file,
        data=bytes(data),
        footer=FileFooter(footer.options, footer.feature_ids, stripes, len(data)),
    )


def with_payload_cut(dwrf_file, feature_id, kind, length):
    """The file with each (feature, kind) stream's payload cut to its
    first *length* bytes and sealed again where it lay."""
    return with_stream_bytes(
        dwrf_file,
        feature_id,
        kind,
        lambda sealed: encoding.seal(encoding.unseal(sealed)[:length]),
    )


def crc_matched(dwrf_file, data):
    """*dwrf_file* holding *data* under a footer whose every CRC is
    that of *data*'s bytes: damage only the decoder can catch."""
    return with_streams(
        dataclasses.replace(dwrf_file, data=data),
        lambda info: dataclasses.replace(
            info, checksum=zlib.crc32(data[info.offset : info.end])
        ),
    )


def only(feature_id, kind, edit):
    """*edit* applied to the (feature, kind) streams, the rest kept."""
    return lambda info: (
        edit(info) if (info.feature_id, info.kind) == (feature_id, kind) else info
    )


@pytest.mark.parametrize("window", WINDOWS)
def test_a_flipped_byte_in_any_stream_is_refused_in_the_same_words(window):
    dwrf_file, options = dense_sparse_scored_file(window=window)
    stripe = dwrf_file.footer.stripes[1]
    assert len(stripe.streams) == 10
    for info in stripe.streams:
        data = bytearray(dwrf_file.data)
        data[info.offset + info.length // 2] ^= 0x40
        damaged = dataclasses.replace(dwrf_file, data=bytes(data))
        ours, theirs = refusals(lambda: DwrfReader.for_file(damaged, options), 1)
        assert ours == theirs
        assert f"({info.feature_id}, {info.kind.value}) at offset {info.offset}" in ours


def test_a_corrupt_stream_under_a_matching_crc_fails_in_unseal_in_the_same_words():
    dwrf_file, options = dense_sparse_scored_file()
    target = oracle_stream(dwrf_file.footer.stripes[0], 10, StreamKind.SPARSE_VALUES)
    data = bytearray(dwrf_file.data)
    data[target.offset] ^= 0xFF
    damaged = crc_matched(dwrf_file, bytes(data))
    ours, theirs = refusals(lambda: DwrfReader.for_file(damaged, options))
    assert ours == theirs
    assert ours.startswith("corrupt compressed stream")


@pytest.mark.parametrize("window", WINDOWS)
def test_a_zero_footer_crc_is_checked_like_any_other(window):
    """0 is a CRC-32 like any other: a stream whose footer says 0 while
    its bytes say otherwise is refused, by a decoding read and by a
    verifying one, naming the stream."""
    dwrf_file, options = dense_sparse_scored_file(window=window)
    target = oracle_stream(dwrf_file.footer.stripes[1], 10, StreamKind.SPARSE_VALUES)
    assert zlib.crc32(dwrf_file.data[target.offset : target.end]) != 0
    zeroed = with_streams(
        dwrf_file,
        lambda info: dataclasses.replace(info, checksum=0) if info == target else info,
    )
    words = f"checksum mismatch in stream (10, sparse_values) at offset {target.offset}"
    for read in (
        lambda reader: reader.read_stripe(1, SCHEMA),
        lambda reader: reader.decode_stripe(1, SCHEMA),
        lambda reader: reader.verify_stripe(1),
    ):
        with pytest.raises(FormatError, match=re.escape(words)):
            read(DwrfReader.for_file(zeroed, options))
    DwrfReader.for_file(zeroed, options).read_stripe(0, SCHEMA)  # stripe 0 is clean


@pytest.mark.parametrize("window", WINDOWS)
def test_a_short_read_is_refused_in_the_same_words(window):
    dwrf_file, options = dense_sparse_scored_file(window=window)
    data = dwrf_file.data

    def short(offset, length):
        return data[offset : offset + length - 1]

    ours, theirs = refusals(lambda: DwrfReader(dwrf_file.footer, short, options))
    assert ours == theirs == "short read from fetcher"


def test_a_missing_scores_stream_is_refused_in_the_same_words():
    dwrf_file, options = dense_sparse_scored_file()
    damaged = with_streams(
        dwrf_file, only(20, StreamKind.SCORE_VALUES, lambda info: None)
    )
    ours, theirs = refusals(lambda: DwrfReader.for_file(damaged, options))
    assert ours == theirs == "scored feature missing scores stream"


@pytest.mark.parametrize(
    "feature_id, kind, text",
    [
        (10, StreamKind.SPARSE_LENGTHS, "sparse feature missing lengths stream"),
        (10, StreamKind.SPARSE_VALUES, "feature missing values stream"),
        (1, StreamKind.DENSE_VALUES, "feature missing values stream"),
    ],
)
def test_a_missing_lengths_or_values_stream_is_a_format_error(feature_id, kind, text):
    """The replaced reader let a bare ``KeyError`` out of its payload
    dict here; ``decode_flattened_feature`` always had the words."""
    dwrf_file, options = dense_sparse_scored_file()
    damaged = with_streams(dwrf_file, only(feature_id, kind, lambda info: None))
    with pytest.raises(KeyError):
        oracle_read_stripe(DwrfReader.for_file(damaged, options), 0, SCHEMA)
    with pytest.raises(FormatError) as caught:
        DwrfReader.for_file(damaged, options).read_stripe(0, SCHEMA)
    assert str(caught.value) == text


@pytest.mark.parametrize(
    "feature_id, kind, length, text",
    [
        (1, StreamKind.PRESENCE, 0, "bitmap shorter than requested count"),
        (1, StreamKind.DENSE_VALUES, 3, "float stream length not a multiple of 4"),
        (10, StreamKind.SPARSE_LENGTHS, 0, "empty integer stream"),
        (
            10,
            StreamKind.SPARSE_VALUES,
            4,
            "integer stream length not a multiple of its width",
        ),
        (20, StreamKind.SCORE_VALUES, 2, "float stream length not a multiple of 4"),
    ],
)
def test_bad_stream_lengths_are_refused_in_the_same_words(
    feature_id, kind, length, text
):
    """The bitmap / int / float length checks, reached through a file
    whose stream payload is cut short and sealed again."""
    dwrf_file, options = dense_sparse_scored_file()
    damaged = with_payload_cut(dwrf_file, feature_id, kind, length)
    ours, theirs = refusals(lambda: DwrfReader.for_file(damaged, options))
    assert ours == theirs == text


# -- the trace a refusal leaves behind -----------------------------------------

REFUSAL_WINDOWS = (0, 512, 1_310_720)


def refusal_file(window):
    """Two stripes of ten streams, ~1.3 KB each: ten reads at window 0,
    a few of several streams each at 512, one at 1 310 720."""
    rows = [
        Row(
            label=float(i % 2),
            dense={1: (i * 7919 % 1009) / 3},
            sparse={10: [i * 104_729 % 65_521, i], 20: [2**40 + i * 15_485_863]},
            scores={20: [(i * 31 % 17) / 7]},
        )
        for i in range(80)
    ]
    dwrf_file = write_table_partition(rows, SCHEMA, EncodingOptions(stripe_rows=40))
    options = ReadOptions(None, window)
    reads = DwrfReader.for_file(dwrf_file, options)._plan(1).reads
    streams_per_read = [len(members) for *_, members in reads]
    assert sum(streams_per_read) == 10
    if window == 0:
        assert len(reads) == 10
    elif window == 512:
        assert 1 < len(reads) < 10 and max(streams_per_read) > 1
    else:
        assert len(reads) == 1
    return dwrf_file, options, streams_per_read


def refused_fetch(fetch_streams, footer, fetcher, options):
    """(words, trace) after *fetch_streams* refuses stripe 1."""
    reader = DwrfReader(footer, fetcher, options)
    with pytest.raises(FormatError) as caught:
        fetch_streams(reader, reader._plan(1))
    return str(caught.value), reader.trace


BODIES = (DwrfReader._open_stripe, oracle_fetch_planned_streams)


def assert_same_trace(ours, theirs):
    assert ours.records == theirs.records
    assert ours.bytes_read == theirs.bytes_read
    assert ours.useful_bytes == theirs.useful_bytes
    assert ours.bytes_read == sum(record.length for record in ours.records)
    assert ours.useful_bytes == sum(record.useful_bytes for record in ours.records)


@pytest.mark.parametrize("window", REFUSAL_WINDOWS)
def test_a_short_read_leaves_the_same_trace(window):
    dwrf_file, options, streams_per_read = refusal_file(window)
    for bad in range(len(streams_per_read)):
        traces = []
        for fetch_streams in BODIES:
            calls = iter(range(len(streams_per_read)))

            def short(offset, length):
                cut = next(calls) == bad
                return dwrf_file.data[offset : offset + length - cut]

            words, trace = refused_fetch(
                fetch_streams, dwrf_file.footer, short, options
            )
            assert words == "short read from fetcher"
            assert trace.io_count == bad  # the reads before it, not the short one
            traces.append(trace)
        assert_same_trace(*traces)


@pytest.mark.parametrize("window", REFUSAL_WINDOWS)
def test_a_checksum_mismatch_leaves_the_same_trace(window):
    dwrf_file, options, streams_per_read = refusal_file(window)
    io_counts = []
    for info in dwrf_file.footer.stripes[1].streams:
        data = bytearray(dwrf_file.data)
        data[info.offset] ^= 0x01
        damaged = dataclasses.replace(dwrf_file, data=bytes(data))
        fetcher = DwrfReader.for_file(damaged)._fetch
        (ours_words, ours), (theirs_words, theirs) = (
            refused_fetch(fetch_streams, damaged.footer, fetcher, options)
            for fetch_streams in BODIES
        )
        assert ours_words == theirs_words
        assert f"({info.feature_id}, {info.kind.value})" in ours_words
        assert_same_trace(ours, theirs)
        io_counts.append(ours.io_count)
    # Up to and including the read that held the bad stream.
    assert io_counts == [
        position + 1
        for position, n_streams in enumerate(streams_per_read)
        for _ in range(n_streams)
    ]


@pytest.mark.parametrize("window", REFUSAL_WINDOWS)
def test_a_corrupt_deflate_stream_leaves_every_fetched_read_in_the_trace(window):
    """Where the two bodies part, on purpose.  The per-stream loop
    inflated each stream before it fetched the next read, so it stopped
    fetching at the bad one; the reader verifies the whole stripe before
    it unseals anything.  Each trace holds what its reader really
    fetched — the old one a prefix of the new, the new one every read
    of the stripe — and that is what the storage nodes say they served.
    Each damaged stream's CRC matches its damaged bytes, so only the
    inflate can refuse it."""
    dwrf_file, options, streams_per_read = refusal_file(window)
    clean = DwrfReader.for_file(dwrf_file, options)
    clean.read_stripe(1, SCHEMA)
    assert clean.trace.io_count == len(streams_per_read)
    for info in dwrf_file.footer.stripes[1].streams:
        data = bytearray(dwrf_file.data)
        data[info.offset] ^= 0xFF
        damaged = crc_matched(dwrf_file, bytes(data))
        outcomes = []
        for fetch_streams in BODIES:
            filesystem = stored(damaged, 1 << 20)
            words, trace = refused_fetch(
                fetch_streams, damaged.footer, filesystem.fetcher("f"), options
            )
            assert filesystem.total_io() == (trace.io_count, trace.bytes_read)
            outcomes.append((words, trace))
        (ours_words, ours), (theirs_words, theirs) = outcomes
        assert ours_words == theirs_words
        assert ours_words.startswith("corrupt compressed stream")
        assert_same_trace(ours, clean.trace)
        assert theirs.records == ours.records[: theirs.io_count]


# -- a stripe's streams, opened one by one -------------------------------------

KEY = encoding.KEY_PERIOD
TILE = encoding._XOR_KEY_TILE.size
EDGE_LENGTHS = (0, 1, KEY - 1, KEY, KEY + 1, 2 * KEY - 1, 2 * KEY, 2 * KEY + 1)


def synthetic_stripe(sealed_streams, gaps):
    """A one-stripe file whose streams are *sealed_streams*, each after
    ``gaps[i]`` bytes nothing needs (what a coalesced read over-reads)."""
    data = bytearray()
    infos = []
    for index, (sealed, gap) in enumerate(zip(sealed_streams, gaps)):
        data += b"\xa5" * gap
        infos.append(
            StreamInfo(
                index, StreamKind.PRESENCE, len(data), len(sealed), zlib.crc32(sealed)
            )
        )
        data += sealed
    footer = FileFooter(
        EncodingOptions(),
        tuple(range(len(infos))),
        [StripeMeta(1, tuple(infos))],
        len(data),
    )
    return DwrfFile(bytes(data), footer)


def opened(open_stripe, dwrf_file, window):
    """What *open_stripe* made of stripe 0, or the words it refused with."""
    reader = DwrfReader.for_file(dwrf_file, ReadOptions(None, window))
    try:
        return open_stripe(reader, reader._plan(0))
    except FormatError as refusal:
        return str(refusal)


def one_by_one(sealed_streams):
    """Each stream through ``oracle_unseal``, or the first refusal."""
    try:
        return [oracle_unseal(sealed) for sealed in sealed_streams] + [None]
    except FormatError as refusal:
        return str(refusal)


lengths = st.sampled_from(EDGE_LENGTHS) | st.integers(0, 5 * KEY)


@settings(deadline=None)
@given(
    st.lists(st.tuples(lengths, st.integers(0, 40)), min_size=1, max_size=12),
    st.sampled_from((0, 64, 1_310_720)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_a_stripe_opens_as_each_stream_unseals_alone(
    shape, window, sealed_lengths, seed
):
    """*sealed_lengths* picks whether the drawn lengths are the payloads'
    or the sealed streams' own — the latter (raw bytes that were never
    sealed) reach every edge length, where both sides must then refuse
    the first stream that does not inflate in the same words."""
    rng = np.random.default_rng(seed)
    blobs = [rng.bytes(length) for length, _ in shape]
    sealed_streams = blobs if sealed_lengths else [encoding.seal(b) for b in blobs]
    dwrf_file = synthetic_stripe(sealed_streams, [gap for _, gap in shape])
    expected = one_by_one(sealed_streams)
    assert opened(DwrfReader._open_stripe, dwrf_file, window) == expected
    if not sealed_lengths:
        assert expected[:-1] == blobs


@pytest.mark.parametrize(
    "sizes",
    [
        (TILE + KEY + 1,),  # one stream longer than the key tile
        (TILE - 5, 3 * KEY + 1),  # the second starts just short of the tile's end
        (400_000, 0, 400_000, 1, 400_000, KEY),  # the tile ends mid-stream
    ],
)
def test_streams_past_the_key_tile_open_alike(sizes):
    rng = np.random.default_rng(len(sizes))
    blobs = [rng.bytes(size) for size in sizes]  # incompressible: sealed ≈ size
    sealed_streams = [encoding.seal(blob) for blob in blobs]
    assert sum(map(len, sealed_streams)) > TILE
    dwrf_file = synthetic_stripe(sealed_streams, [7] * len(sizes))
    assert opened(DwrfReader._open_stripe, dwrf_file, 0) == blobs + [None]
    assert one_by_one(sealed_streams) == blobs + [None]


def assert_flips_refused_alike(window, crc_matches, position):
    """Flip the byte at ``position(info)`` of each stream in turn; the
    reader and the per-stream oracle must refuse it in the same words."""
    rng = np.random.default_rng(9)
    blobs = [rng.bytes(length) * 3 for length in (5, KEY, 2 * KEY + 1, 90)]
    dwrf_file = synthetic_stripe([encoding.seal(b) for b in blobs], [3, 0, 20, 9])
    refusals = []
    for info in dwrf_file.footer.stripes[0].streams:
        data = bytearray(dwrf_file.data)
        data[position(info)] ^= 0xFF
        damaged = (
            crc_matched(dwrf_file, bytes(data))
            if crc_matches
            else dataclasses.replace(dwrf_file, data=bytes(data))
        )
        ours, theirs = (
            opened(open_stripe, damaged, window) for open_stripe in BODIES
        )
        assert ours == theirs
        if crc_matches:
            assert ours.startswith("corrupt compressed stream")
        else:
            assert f"({info.feature_id}, presence) at offset {info.offset}" in ours
        refusals.append(ours)
    return refusals


@pytest.mark.parametrize("window", [0, 64, 1_310_720])
@pytest.mark.parametrize("crc_matches", [True, False])
def test_one_flipped_byte_is_refused_naming_the_same_stream(window, crc_matches):
    """The CRC names the stream; under a CRC of the damaged bytes, the
    stream fails to inflate in ``unseal``'s words — on both sides."""
    assert_flips_refused_alike(window, crc_matches, lambda info: info.offset + 1)


# A stream's first sealed byte is its zlib header under the key's first
# byte, its last the Adler-32 trailer under the key's phase at the
# stream's end; zlib refuses the two in different words.
STREAM_ENDS = {
    "first": (lambda info: info.offset, "incorrect header check"),
    "last": (lambda info: info.offset + info.length - 1, "incorrect data check"),
}


@pytest.mark.parametrize("window", [0, 64, 1_310_720])
@pytest.mark.parametrize("end", sorted(STREAM_ENDS))
def test_a_flip_at_either_end_of_a_stream_is_refused_alike(end, window):
    """A damaged header or trailer under a matching CRC is refused in
    the words ``unseal`` gives, whichever key phase the stream ends on."""
    position, words = STREAM_ENDS[end]
    refusals = assert_flips_refused_alike(window, True, position)
    assert all(refusal.endswith(words) for refusal in refusals)
