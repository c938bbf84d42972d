"""``TectonicFilesystem.read`` against the block-walking body it replaced.

``read`` bisects a kept list of block starts to its first block; the
oracle re-sums the file's length and walks from block 0.  Both must
charge the same nodes in the same order (so the replica round-robin
stays in step), ``read`` must return exactly the bytes the test
appended, and a read must cost the same at the tail of a long file as
at its head.
"""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.tectonic
from repro.common.errors import StorageError

from .oracles import oracle_charge
from .test_filesystem import small_fs


def accounting(filesystem):
    served = [
        (node.served.io_count, node.served.bytes_read, node.served.io_count)
        for node in filesystem.nodes
    ]
    return served, filesystem._replica_rr


appends = st.tuples(st.just("append"), st.sampled_from("ab"), st.binary(max_size=40))
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
    appended = {"a": b"", "b": b""}  # what the program wrote, file by file
    for filesystem in (ours, theirs):
        filesystem.create("a")
        filesystem.create("b")
    for step, name, argument in program:
        if step == "append":
            ours.append(name, argument)
            theirs.append(name, argument)
            appended[name] += argument
            continue
        where, extent, snap_start, snap_end = argument
        size = ours.file(name).length
        offset = int(where * size)
        if snap_start:
            offset -= offset % chunk_bytes
        end = offset + int(extent * (size - offset))
        if snap_end:
            end = min(size, end + -end % chunk_bytes)
        assert ours.read(name, offset, end - offset) == appended[name][offset:end]
        oracle_charge(theirs, name, offset, end - offset)
        assert accounting(ours) == accounting(theirs)
    for name in "ab":
        size = ours.file(name).length
        assert size == len(appended[name])
        assert size == sum(block.length for block in ours.file(name).blocks)
        assert ours.read(name, 0, size) == appended[name]
        oracle_charge(theirs, name, 0, size)
        with pytest.raises(StorageError) as ours_error:
            ours.read(name, 1, size)
        with pytest.raises(StorageError) as theirs_error:
            oracle_charge(theirs, name, 1, size)
        assert str(ours_error.value) == str(theirs_error.value)
    assert accounting(ours) == accounting(theirs)


# Three appends at chunk 8 place blocks of 8, 5 | 8, 8, 4 | 4 bytes, so
# block seams fall on and off the chunk grid and two blocks are short.
SEAMED_APPENDS = (bytes(range(13)), bytes(range(100, 120)), b"wxyz")
EDGE_READS = {
    "inside the first block": (1, 3),
    "the first block whole": (0, 8),
    "a short block whole": (8, 5),
    "the last byte of a block": (7, 1),
    "the first byte of a block": (8, 1),
    "across one seam": (6, 4),
    "across a short block": (7, 7),
    "across an append's seam": (11, 4),
    "from a seam to the end": (13, 24),
    "the last byte of the file": (36, 1),
    "the whole file": (0, 37),
    "nothing at a seam": (8, 0),
    "nothing at the end": (37, 0),
}


@pytest.mark.parametrize("case", sorted(EDGE_READS))
def test_each_edge_of_a_read_matches_the_oracle(case):
    """Fixed ranges at the edges the generated programs reach only by
    chance, each read once per replica so the round-robin comes round."""
    offset, length = EDGE_READS[case]
    ours, theirs = small_fs(chunk_bytes=8, n_nodes=5), small_fs(chunk_bytes=8, n_nodes=5)
    for filesystem in (ours, theirs):
        filesystem.create("f")
        for payload in SEAMED_APPENDS:
            filesystem.append("f", payload)
    assert [block.length for block in ours.file("f").blocks] == [8, 5, 8, 8, 4, 4]
    appended = b"".join(SEAMED_APPENDS)
    for _ in range(ours.replication):
        assert ours.read("f", offset, length) == appended[offset : offset + length]
        oracle_charge(theirs, "f", offset, length)
        assert accounting(ours) == accounting(theirs)
    assert ours.total_io()[1] == ours.replication * length


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
