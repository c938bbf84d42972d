"""A worker that keeps the flatmaps of stripes it re-reads, and their
transformed pieces, against one that decodes and transforms every read.

``DppWorker`` keeps a stripe's flatmap from its second read on and from
the third only makes, charges and verifies the stripe's reads; each
piece of a kept stripe carries a holder that its first transform fills
and later transforms under the same plan replay.  ``OracleDppWorker``
(``oracles.py``) is the worker before both, which unseals, decodes and
runs the DAG on every hand-over.  Everything the modelled system can
see must be the same on both — batches array for array before and after
the DAG, cost reports, ``IOTrace`` record for record, ``stats`` field
for field, what every storage node served and where the replica
round-robin stands — on clean bytes, across a DAG that grows between
passes, and on bytes damaged between two epochs; and the kept arm must
be *earned*: a stripe read once is not kept, one with an unchecksummed
needed stream never is, and what is kept cannot be written to.

The tables, encodings and the schema are those of
``tests/dwrf/test_read_differential.py``; the DAGs are drawn from every
registered op as in ``tests/transforms/test_plan.py``.
"""

import bisect
import dataclasses
import types
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FormatError
from repro.dpp import DppMaster, DppWorker, SessionSpec
from repro.dwrf import FileLayout, write_table_partition
from repro.dwrf import reader as reader_module
from repro.dwrf.stream import ROW_LEVEL
from repro.transforms import FirstX, Logit, SigridHash, TransformDag

from ..dwrf.test_read_differential import (
    DENSE_IDS,
    LOGGED_IDS,
    REFUSAL_WINDOWS,
    SCHEMA,
    SCORED_IDS,
    SILENT_IDS,
    WINDOWS,
    assert_same_column,
    encodings,
    node_accounting,
    refusal_file,
    stored,
    tables,
    with_streams,
)
from ..transforms.test_plan import DENSE, SCORED, SPARSE, dags
from .oracles import OracleDppWorker

PASSES = 4
ALL_DENSE = frozenset(DENSE_IDS + SILENT_IDS[:1])
ALL_SCORED = frozenset(SCORED_IDS + SILENT_IDS[2:])


def dag_over(projection) -> TransformDag:
    """One dense and one sparse chain over whatever is projected."""
    dag = TransformDag()
    dense = sorted(projection & ALL_DENSE)
    sparse = sorted(projection - ALL_DENSE)
    if dense:
        dag.add(900, Logit(dense[0]))
    if sparse:
        dag.add(901, FirstX(sparse[0], 2))
        dag.add(902, SigridHash(901, 1_000))
    return dag


def kinds_of(projection) -> dict:
    """The projected raw features by the kind a DAG node can read."""
    return {
        fid: DENSE if fid in ALL_DENSE else SCORED if fid in ALL_SCORED else SPARSE
        for fid in sorted(projection)
    }


def worker_over(cls, dwrf_file, filesystem, projection, dag=None, **spec):
    footers = {"f": dwrf_file.footer}
    session = SessionSpec(
        table_name=SCHEMA.table_name,
        partitions=("f",),
        projection=projection,
        dag=dag_over(projection) if dag is None else dag,
        **spec,
    )
    return cls("w0", DppMaster(session, footers), filesystem, SCHEMA, footers)


def one_pass(worker, batches=None) -> list:
    """Extract every split the master hands out, then reopen them all.

    Batches are appended to *batches* as they are yielded, so a caller
    that passes a list still holds them if the pass is refused.
    """
    master = worker.master
    batches = [] if batches is None else batches
    while (split := master.request_split(worker.worker_id)) is not None:
        for batch in worker.extract_batches(split):
            batches.append(batch)
        master.complete_split(worker.worker_id, split.split_id)
    master.begin_epoch()
    return batches


def transformed_pass(worker) -> list:
    batches = one_pass(worker)
    for batch in batches:
        worker.transform_batch(batch)
    return batches


def flip(filesystem, offset) -> None:
    """Flip the lowest bit of the stored byte at file *offset*."""
    tectonic_file = filesystem.file("f")
    index = bisect.bisect_right(tectonic_file.block_starts, offset) - 1
    block = tectonic_file.blocks[index]
    data = bytearray(block.data)
    data[offset - tectonic_file.block_starts[index]] ^= 0x01
    block.data = bytes(data)


def assert_same_batches(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.labels.dtype == b.labels.dtype
        assert a.labels.tobytes() == b.labels.tobytes()
        assert list(a.columns) == list(b.columns)
        for fid, column in a.columns.items():
            assert_same_column(column, b.columns[fid])


def assert_same_accounting(ours, theirs):
    assert ours.io_trace.records == theirs.io_trace.records
    assert ours.io_trace.bytes_read == theirs.io_trace.bytes_read
    assert ours.io_trace.useful_bytes == theirs.io_trace.useful_bytes
    assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
    assert ours.filesystem.total_io() == theirs.filesystem.total_io()
    assert node_accounting(ours.filesystem) == node_accounting(theirs.filesystem)
    assert ours.filesystem._replica_rr == theirs.filesystem._replica_rr


@settings(deadline=None)
@given(
    tables(),
    encodings(layouts=(FileLayout.FLATTENED, FileLayout.MAP)),
    st.sets(st.sampled_from(LOGGED_IDS + SILENT_IDS), min_size=1).map(frozenset),
    st.sampled_from(WINDOWS),
    st.sampled_from((3, 64)),  # at 3 most stripes are cut into several pieces
    st.sampled_from((1, 2)),
    st.sampled_from((64, 1 << 20)),
    st.data(),
)
def test_every_pass_over_the_same_splits_matches_a_worker_that_decodes_each(
    rows,
    encoding_options,
    projection,
    window,
    batch_size,
    split_stripes,
    chunk_bytes,
    data,
):
    dwrf_file = write_table_partition(rows, SCHEMA, encoding_options)
    kinds = kinds_of(projection)
    # One DAG object for both workers, as a session's workers share it.
    dag = data.draw(dags(raw=kinds), label="dag")
    grown = data.draw(dags(raw=kinds, first_id=200, min_nodes=1), label="added")
    grow_before = data.draw(st.integers(1, PASSES - 1), label="added before pass")
    offsets = st.integers(0, len(dwrf_file.data) - 1)
    damage = data.draw(
        st.none() | st.tuples(st.integers(1, PASSES - 1), offsets),
        label="(pass, file offset) of a flipped byte",
    )
    spec = dict(
        coalesce_window=window, batch_size=batch_size, split_stripes=split_stripes
    )
    ours, theirs = (
        worker_over(
            cls, dwrf_file, stored(dwrf_file, chunk_bytes), projection, dag, **spec
        )
        for cls in (DppWorker, OracleDppWorker)
    )
    for index in range(PASSES):
        if index == grow_before:
            # A new plan: every kept piece must run it, not replay the old.
            for node in grown.nodes:
                dag.add(node.output_id, node.op)
        if damage is not None and damage[0] == index:
            for worker in (ours, theirs):
                flip(worker.filesystem, damage[1])
        mine, expected = [], []
        refusals = []
        for worker, batches in ((ours, mine), (theirs, expected)):
            try:
                one_pass(worker, batches)
                refusals.append(None)
            except FormatError as refusal:
                refusals.append(str(refusal))
        # Refused at the same read, having yielded the same batches: no
        # piece of the damaged stripe, kept or not, is handed out.
        assert refusals[0] == refusals[1]
        assert_same_batches(mine, expected)
        assert_same_accounting(ours, theirs)
        # The DAG runs on this pass's batches, which from the second
        # pass on share their base arrays (and from the third their
        # transformed pieces) with the next pass's.
        with np.errstate(all="ignore"):
            reports = [
                [worker.transform_batch(batch).to_json() for batch in batches]
                for worker, batches in ((ours, mine), (theirs, expected))
            ]
        assert reports[0] == reports[1]
        assert_same_batches(mine, expected)
        assert_same_accounting(ours, theirs)
        if refusals[0] is not None:
            return


# -- damage between two epochs -----------------------------------------------------


def outcome(worker):
    """The refusal's words (or None) and how many batches came first."""
    batches = []
    try:
        one_pass(worker, batches)
    except FormatError as refusal:
        return str(refusal), len(batches)
    return None, len(batches)


def warmed_pair(dwrf_file, window, filesystems):
    """Both workers after two clean, transformed passes: ours holds every
    flatmap and every transformed piece."""
    pair = [
        worker_over(
            cls,
            dwrf_file,
            filesystem,
            frozenset(LOGGED_IDS),
            coalesce_window=window,
            batch_size=16,
        )
        for cls, filesystem in zip((DppWorker, OracleDppWorker), filesystems)
    ]
    for worker in pair:
        transformed_pass(worker)
        transformed_pass(worker)
    assert_same_accounting(*pair)
    return pair


@pytest.mark.parametrize("window", REFUSAL_WINDOWS)
def test_a_byte_flipped_between_epochs_is_refused_as_a_fresh_reader_refuses_it(window):
    dwrf_file, _, streams_per_read = refusal_file(window)
    reads_per_stripe = len(streams_per_read)
    for info in dwrf_file.footer.stripes[1].streams:
        ours, theirs = warmed_pair(
            dwrf_file, window, [stored(dwrf_file, 1 << 20) for _ in range(2)]
        )
        before = ours.io_trace.io_count
        for worker in (ours, theirs):
            flip(worker.filesystem, info.offset)
        words, served_batches = outcome(ours)
        assert (words, served_batches) == outcome(theirs)
        stream = f"({info.feature_id}, {info.kind.value}) at offset {info.offset}"
        assert stream in words
        # Stripe 0's three pieces, then the refusal: no kept piece of
        # stripe 1 — transformed or not — is handed out.
        assert served_batches == 3
        assert_same_accounting(ours, theirs)
        # Stripe 0 whole, then stripe 1 up to the read holding the stream.
        served = ours.io_trace.io_count - before
        assert reads_per_stripe < served <= 2 * reads_per_stripe


class CuttingFilesystem:
    """The Tectonic read surface; the read numbered ``cut_at`` comes back
    a byte short (after storage served and charged it in full)."""

    def __init__(self, filesystem) -> None:
        self._filesystem = filesystem
        self.reads = 0
        self.cut_at = None

    def __getattr__(self, name):
        return getattr(self._filesystem, name)

    def fetcher(self, name):
        def fetch(offset, length):
            data = self._filesystem.read(name, offset, length)
            self.reads += 1
            return data[:-1] if self.reads == self.cut_at else data

        return fetch


@pytest.mark.parametrize("window", REFUSAL_WINDOWS)
def test_a_short_read_between_epochs_is_refused_as_a_fresh_reader_refuses_it(window):
    dwrf_file, _, streams_per_read = refusal_file(window)
    n_stripes = len(dwrf_file.footer.stripes)
    for bad in range(1, n_stripes * len(streams_per_read) + 1):
        ours, theirs = warmed_pair(
            dwrf_file,
            window,
            [CuttingFilesystem(stored(dwrf_file, 1 << 20)) for _ in range(2)],
        )
        before = ours.io_trace.io_count
        for worker in (ours, theirs):
            worker.filesystem.cut_at = worker.filesystem.reads + bad
        words, served_batches = outcome(ours)
        assert (words, served_batches) == outcome(theirs)
        assert words == "short read from fetcher"
        assert_same_accounting(ours, theirs)
        assert ours.io_trace.io_count - before == bad - 1  # not the short one


# -- what is kept, and when: counts, not timings -----------------------------------


def counted_zlib(monkeypatch):
    """The reader's view of zlib, counting bytes per call."""
    checked, inflated = [], []

    def counting(calls, real):
        def call(data, *args, **kwargs):
            calls.append(len(data))
            return real(data, *args, **kwargs)

        return call

    monkeypatch.setattr(
        reader_module,
        "zlib",
        types.SimpleNamespace(
            crc32=counting(checked, zlib.crc32),
            decompress=counting(inflated, zlib.decompress),
            error=zlib.error,
        ),
    )
    return checked, inflated


def counts_file():
    dwrf_file, _, _ = refusal_file(0)
    lengths = [
        info.length for stripe in dwrf_file.footer.stripes for info in stripe.streams
    ]
    return dwrf_file, lengths


@pytest.mark.parametrize("epochs", [1, 2, 3, 6])
def test_a_stripe_is_inflated_twice_and_checked_every_epoch(epochs, monkeypatch):
    dwrf_file, lengths = counts_file()
    checked, inflated = counted_zlib(monkeypatch)
    worker = worker_over(
        DppWorker, dwrf_file, stored(dwrf_file, 1 << 20), frozenset(LOGGED_IDS)
    )
    for _ in range(epochs):
        one_pass(worker)
    assert checked == epochs * lengths  # E·S stripes' streams, in order
    assert inflated == min(epochs, 2) * lengths  # 2·S, however many epochs
    assert worker.io_trace.io_count == epochs * len(lengths)
    assert worker.filesystem.total_io() == (
        epochs * len(lengths),
        epochs * sum(lengths),
    )


@pytest.mark.parametrize("unchecked", [ROW_LEVEL, 10])
def test_a_stripe_with_an_unchecksummed_needed_stream_is_never_kept(
    unchecked, monkeypatch
):
    """Nothing would prove its bytes unchanged, so it decodes every time."""
    dwrf_file, lengths = counts_file()
    stripe_1_starts = min(info.offset for info in dwrf_file.footer.stripes[1].streams)
    blind = with_streams(
        dwrf_file,
        lambda info: (
            dataclasses.replace(info, checksum=0)
            if info.feature_id == unchecked and info.offset < stripe_1_starts
            else info
        ),
    )
    zeroed = [
        info.length
        for info in blind.footer.stripes[0].streams
        if not info.checksum
    ]
    assert zeroed and all(info.checksum for info in blind.footer.stripes[1].streams)
    per_stripe = len(lengths) // 2
    checked, inflated = counted_zlib(monkeypatch)
    worker = worker_over(
        DppWorker, blind, stored(blind, 1 << 20), frozenset(LOGGED_IDS)
    )
    for _ in range(PASSES):
        one_pass(worker)
    # Stripe 0 inflates on every pass, stripe 1 on two.
    assert len(inflated) == (PASSES + 2) * per_stripe
    assert sum(inflated) == PASSES * sum(lengths[:per_stripe]) + 2 * sum(
        lengths[per_stripe:]
    )
    assert sum(checked) == PASSES * (sum(lengths) - sum(zeroed))


def test_an_unchecksummed_stream_outside_the_projection_does_not_matter(monkeypatch):
    dwrf_file, lengths = counts_file()
    blind = with_streams(
        dwrf_file,
        lambda info: dataclasses.replace(info, checksum=0)
        if info.feature_id == 20
        else info,
    )
    needed = [
        info.length
        for stripe in blind.footer.stripes
        for info in stripe.streams
        if info.feature_id != 20
    ]
    checked, inflated = counted_zlib(monkeypatch)
    worker = worker_over(DppWorker, blind, stored(blind, 1 << 20), frozenset({1, 10}))
    for _ in range(PASSES):
        one_pass(worker)
    assert checked == PASSES * needed and inflated == 2 * needed


def column_refs(batches) -> list:
    """Weak references to the batches' columns; the batches are let go."""
    return [
        weakref.ref(column) for batch in batches for column in batch.columns.values()
    ]


def test_a_stripe_read_once_is_not_kept_and_one_read_twice_is():
    """The admission rule, seen from outside: what a single pass decoded
    dies with its batches; what a second pass decoded lives on."""
    dwrf_file, _ = counts_file()
    worker = worker_over(
        DppWorker, dwrf_file, stored(dwrf_file, 1 << 20), frozenset({1, 10, 20})
    )
    once = column_refs(one_pass(worker))
    assert once and [ref() for ref in once] == [None] * len(once)
    twice = column_refs(one_pass(worker))
    assert None not in [ref() for ref in twice]
    third = one_pass(worker)
    assert [column for batch in third for column in batch.columns.values()] == [
        ref() for ref in twice
    ]


@pytest.mark.parametrize("batch_size", [16, 64])
def test_kept_arrays_refuse_writes_and_every_read_gets_its_own_batch(batch_size):
    dwrf_file, _ = counts_file()
    worker = worker_over(
        DppWorker,
        dwrf_file,
        stored(dwrf_file, 1 << 20),
        frozenset({1, 10, 20}),
        batch_size=batch_size,  # at 16, rebatched slices: views of the kept arrays
    )
    one_pass(worker)
    for _ in range(2):  # the pass that keeps, and one served from what it kept
        batches = one_pass(worker)
        assert len(batches) == 2 * -(-40 // batch_size)
        for batch in batches:
            arrays = [batch.labels]
            for column in batch.columns.values():
                arrays += [
                    array
                    for name, array in vars(column).items()
                    # A slice's offsets are rebased: a fresh array per slice.
                    if array is not None
                    and not (name == "offsets" and batch_size < 40)
                ]
            assert len(arrays) >= 6
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
    # A transform adds its columns to the batch it is given, not to the
    # kept flatmap: the next read of the stripe does not see them.
    for batch in batches:
        worker.transform_batch(batch)
    assert 900 in batches[0].columns
    again = one_pass(worker)
    assert all(900 not in batch.columns for batch in again)
    assert_same_batches(again, one_pass(worker))


@pytest.mark.parametrize("end", ["fail", "retire"])
def test_a_dead_worker_holds_nothing(end):
    dwrf_file, _ = counts_file()
    worker = worker_over(
        DppWorker, dwrf_file, stored(dwrf_file, 1 << 20), frozenset({1, 10, 20})
    )
    one_pass(worker)
    kept = column_refs(one_pass(worker))
    assert None not in [ref() for ref in kept]
    getattr(worker, end)()
    assert [ref() for ref in kept] == [None] * len(kept)
