"""``TectonicFilesystem.read`` against the block-walking body it replaced.

``read`` bisects a kept list of block starts to its first block; the
oracle re-sums the file's length and walks from block 0.  Both must
return the same bytes, charge the same nodes in the same order (so the
replica round-robin stays in step), and a read must cost the same at
the tail of a long file as at its head.
"""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.tectonic
from repro.common.errors import StorageError

from .oracles import oracle_read
from .test_filesystem import small_fs


def accounting(filesystem):
    served = [
        (node.served.io_count, node.served.bytes_read, node.served.seeks)
        for node in filesystem.nodes
    ]
    return served, filesystem._replica_rr


appends = st.tuples(st.just("append"), st.sampled_from("ab"), st.binary(max_size=40))
# Size-only blocks: any read that touches one is refused, whole.
virtual_appends = st.tuples(
    st.just("append_virtual"), st.sampled_from("ab"), st.integers(0, 40)
)
# Offsets and lengths as fractions of the file, snapped below so that
# block boundaries, whole blocks and the end of the file come up often.
reads = st.tuples(
    st.just("read"),
    st.sampled_from("ab"),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.booleans(), st.booleans()),
)


@settings(deadline=None)
@given(st.integers(1, 16), st.lists(appends | reads, max_size=30))
def test_reads_interleaved_with_appends_match_the_oracle(chunk_bytes, program):
    ours, theirs = small_fs(chunk_bytes, n_nodes=5), small_fs(chunk_bytes, n_nodes=5)
    for filesystem in (ours, theirs):
        filesystem.create("a")
        filesystem.create("b")
    for step, name, argument in program:
        if step == "append":
            ours.append(name, argument)
            theirs.append(name, argument)
            continue
        where, extent, snap_start, snap_end = argument
        size = ours.file(name).length
        offset = int(where * size)
        if snap_start:
            offset -= offset % chunk_bytes
        end = offset + int(extent * (size - offset))
        if snap_end:
            end = min(size, end + -end % chunk_bytes)
        assert ours.read(name, offset, end - offset) == oracle_read(
            theirs, name, offset, end - offset
        )
        assert accounting(ours) == accounting(theirs)
    for name in "ab":
        size = ours.file(name).length
        assert size == sum(block.length for block in ours.file(name).blocks)
        assert ours.read(name, 0, size) == oracle_read(theirs, name, 0, size)
        with pytest.raises(StorageError) as ours_error:
            ours.read(name, 1, size)
        with pytest.raises(StorageError) as theirs_error:
            oracle_read(theirs, name, 1, size)
        assert str(ours_error.value) == str(theirs_error.value)
    assert accounting(ours) == accounting(theirs)


def outcome(call):
    try:
        return call()
    except StorageError as refusal:
        return str(refusal)


@settings(deadline=None)
@given(
    st.integers(1, 16),
    st.lists(appends | virtual_appends | reads, max_size=30),
)
def test_a_read_touching_a_virtual_block_is_refused_and_charges_nothing(
    chunk_bytes, program
):
    """Files of materialized and size-only blocks in any order: a read
    returns the oracle's bytes and charges the oracle's nodes, or is
    refused in the oracle's words with the accounting as it found it."""
    ours, theirs = small_fs(chunk_bytes, n_nodes=5), small_fs(chunk_bytes, n_nodes=5)
    for filesystem in (ours, theirs):
        filesystem.create("a")
        filesystem.create("b")
    for step, name, argument in program:
        if step != "read":
            getattr(ours, step)(name, argument)
            getattr(theirs, step)(name, argument)
            continue
        where, extent, snap_start, snap_end = argument
        size = ours.file(name).length
        offset = int(where * size)
        if snap_start:
            offset -= offset % chunk_bytes
        end = offset + int(extent * (size - offset))
        if snap_end:
            end = min(size, end + -end % chunk_bytes)
        before = accounting(ours)
        result = outcome(lambda: ours.read(name, offset, end - offset))
        assert result == outcome(lambda: oracle_read(theirs, name, offset, end - offset))
        assert accounting(ours) == accounting(theirs)
        if isinstance(result, str):
            assert result == "cannot read payload of a virtual block"
            assert accounting(ours) == before


TECTONIC_DIR = os.path.dirname(repro.tectonic.__file__)


def lines_executed(call) -> int:
    """Lines of ``repro.tectonic`` run by *call* (that package alone: a
    garbage collection landing mid-call runs other people's lines)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if TECTONIC_DIR not in frame.f_code.co_filename:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_a_read_costs_the_same_at_the_tail_of_a_file_as_at_its_head():
    filesystem = small_fs(chunk_bytes=8)
    filesystem.create("f")
    filesystem.append("f", bytes(range(200)) * 8)
    assert len(filesystem.file("f").blocks) == 200
    head = lines_executed(lambda: filesystem.read("f", 2, 4))
    tail = lines_executed(lambda: filesystem.read("f", 199 * 8 + 2, 4))
    assert head == tail
    # ...and crossing one boundary costs the same anywhere, too.
    head = lines_executed(lambda: filesystem.read("f", 6, 4))
    tail = lines_executed(lambda: filesystem.read("f", 198 * 8 + 6, 4))
    assert head == tail
