"""The Tectonic filesystem: placement, replication, reads, accounting."""

import pytest

from repro.common.errors import CapacityError, StorageError
from repro.tectonic import MediaModel, StorageNode, TectonicFilesystem


def small_fs(chunk_bytes=1024, n_nodes=4, replication=3):
    media = MediaModel("tiny", seek_time_s=0.001, bandwidth_bytes_per_s=1e9,
                       capacity_bytes=1 << 20, watts=10)
    return TectonicFilesystem(
        n_nodes=n_nodes, media=media, replication=replication, chunk_bytes=chunk_bytes
    )


class TestNamespace:
    def test_create_read_delete(self):
        fs = small_fs()
        fs.create("f")
        fs.append("f", b"hello world")
        assert fs.read("f", 0, 5) == b"hello"
        fs.delete("f")
        with pytest.raises(StorageError):
            fs.read("f", 0, 1)

    def test_duplicate_create_rejected(self):
        fs = small_fs()
        fs.create("f")
        with pytest.raises(StorageError):
            fs.create("f")

    def test_list_files(self):
        fs = small_fs()
        fs.create("b")
        fs.create("a")
        assert fs.list_files() == ["a", "b"]


class TestAppendOnly:
    def test_appends_accumulate(self):
        fs = small_fs(chunk_bytes=4)
        fs.create("f")
        fs.append("f", b"abcd")
        fs.append("f", b"efgh")
        assert fs.read("f", 0, 8) == b"abcdefgh"

    def test_sealed_file_rejects_append(self):
        fs = small_fs()
        fs.create("f")
        fs.append("f", b"data")
        fs.seal("f")
        with pytest.raises(StorageError):
            fs.append("f", b"more")

    def test_chunking(self):
        fs = small_fs(chunk_bytes=10)
        fs.create("f")
        fs.append("f", b"x" * 25)
        assert len(fs.file("f").blocks) == 3
        assert [b.length for b in fs.file("f").blocks] == [10, 10, 5]

    def test_read_across_chunk_boundary(self):
        fs = small_fs(chunk_bytes=10)
        fs.create("f")
        fs.append("f", bytes(range(30)))
        assert fs.read("f", 8, 10) == bytes(range(8, 18))

    def test_read_out_of_bounds(self):
        fs = small_fs()
        fs.create("f")
        fs.append("f", b"abc")
        with pytest.raises(StorageError):
            fs.read("f", 0, 10)


class TestReadBounds:
    def test_negative_length_rejected(self):
        # offset + length shrinks under a negative length, so the bound
        # check alone let these through and they read as b"".
        fs = small_fs(chunk_bytes=4)
        fs.create("f")
        fs.append("f", b"0123456789")
        for offset in (0, 5, 10, 12):
            with pytest.raises(StorageError):
                fs.read("f", offset, -3)
        assert fs.total_io() == (0, 0)

    @pytest.mark.parametrize("offset", [0, 4, 5, 10])
    def test_zero_length_read_is_empty_and_touches_no_node(self, offset):
        # At the start, on a block boundary, mid-block and at end of file.
        fs = small_fs(chunk_bytes=4)
        fs.create("f")
        fs.append("f", b"0123456789")
        assert fs.read("f", offset, 0) == b""
        assert fs.total_io() == (0, 0)
        assert fs._replica_rr == 0

    def test_zero_length_read_of_an_empty_file(self):
        fs = small_fs()
        fs.create("f")
        assert fs.read("f", 0, 0) == b""
        with pytest.raises(StorageError):
            fs.read("f", 1, 0)


class TestRefusedReadChargesNothing:
    """A read that raises was not served: no node's counters move and
    the replica round-robin stays where it was.  (Charging each block
    as the loop reached it left ``total_io()`` at ``(2, 100)`` and the
    cursor two on for a read that returned nothing.)"""

    def mixed(self, *kinds):
        fs = small_fs(chunk_bytes=50)
        fs.create("f")
        for kind in kinds:
            if kind == "real":
                fs.append("f", bytes(50))
            else:
                fs.append_virtual("f", 50)
        return fs

    @staticmethod
    def accounting(fs):
        served = [
            (node.served.io_count, node.served.bytes_read, node.served.seeks)
            for node in fs.nodes
        ]
        return fs.total_io(), fs._replica_rr, served

    def assert_refused(self, fs, offset, length):
        before = self.accounting(fs)
        with pytest.raises(StorageError, match="virtual block"):
            fs.read("f", offset, length)
        assert self.accounting(fs) == before

    def test_materialized_blocks_then_a_virtual_one(self):
        fs = self.mixed("real", "real", "virtual")
        self.assert_refused(fs, 0, 150)
        self.assert_refused(fs, 60, 60)
        assert fs.total_io() == (0, 0) and fs._replica_rr == 0
        # The materialized part alone still reads, and is charged.
        assert fs.read("f", 0, 100) == bytes(100)
        assert fs.total_io() == (2, 100) and fs._replica_rr == 2
        self.assert_refused(fs, 0, 150)

    def test_a_virtual_block_first(self):
        fs = self.mixed("virtual", "real")
        self.assert_refused(fs, 0, 100)
        self.assert_refused(fs, 10, 20)  # inside the virtual block alone
        self.assert_refused(fs, 40, 20)
        assert fs.read("f", 50, 50) == bytes(50)
        assert fs.total_io() == (1, 50)

    def test_a_virtual_block_in_the_middle(self):
        fs = self.mixed("real", "virtual", "real")
        self.assert_refused(fs, 0, 150)
        self.assert_refused(fs, 40, 70)


class TestReplication:
    def test_each_block_has_n_replicas(self):
        fs = small_fs(chunk_bytes=8, replication=3)
        fs.create("f")
        fs.append("f", b"y" * 32)
        for block in fs.file("f").blocks:
            assert len(set(block.replica_nodes)) == 3

    def test_used_bytes_counts_replicas(self):
        fs = small_fs(chunk_bytes=1024, replication=3)
        fs.create("f")
        fs.append("f", b"z" * 100)
        assert fs.used_bytes == 300
        assert fs.logical_bytes() == 100

    def test_delete_releases_replica_capacity(self):
        fs = small_fs()
        fs.create("f")
        fs.append("f", b"z" * 100)
        fs.delete("f")
        assert fs.used_bytes == 0

    def test_requires_enough_nodes(self):
        with pytest.raises(StorageError):
            small_fs(n_nodes=2, replication=3)

    def test_placement_balances_free_space(self):
        fs = small_fs(chunk_bytes=64, n_nodes=6, replication=3)
        fs.create("f")
        fs.append("f", b"q" * (64 * 10))
        used = [node.used_bytes for node in fs.nodes]
        assert max(used) - min(used) <= 64


class TestVirtualFiles:
    def test_virtual_blocks_track_size_only(self):
        fs = small_fs(chunk_bytes=100)
        fs.create("v")
        fs.append_virtual("v", 250)
        file = fs.file("v")
        assert file.length == 250
        assert all(block.is_virtual for block in file.blocks)

    def test_virtual_blocks_cannot_be_read(self):
        fs = small_fs()
        fs.create("v")
        fs.append_virtual("v", 10)
        with pytest.raises(StorageError):
            fs.read("v", 0, 5)

    def test_virtual_consumes_capacity(self):
        fs = small_fs()
        fs.create("v")
        fs.append_virtual("v", 500)
        assert fs.used_bytes == 1500  # 3x replication


class TestIOAccounting:
    def test_reads_recorded_on_nodes(self):
        fs = small_fs(chunk_bytes=16)
        fs.create("f")
        fs.append("f", b"m" * 64)
        fs.read("f", 0, 64)
        reads, read_bytes = fs.total_io()
        assert reads == 4  # one per covering block
        assert read_bytes == 64

    def test_replica_round_robin_spreads_reads(self):
        fs = small_fs(chunk_bytes=1024, n_nodes=3, replication=3)
        fs.create("f")
        fs.append("f", b"m" * 100)
        for _ in range(9):
            fs.read("f", 0, 100)
        counts = [node.served.io_count for node in fs.nodes]
        assert counts == [3, 3, 3]

    def test_fetcher_adapter(self):
        fs = small_fs()
        fs.create("f")
        fs.append("f", b"0123456789")
        fetch = fs.fetcher("f")
        assert fetch(2, 4) == b"2345"


class TestStorageNode:
    def test_capacity_enforced(self):
        node = StorageNode(0, MediaModel("m", 0.001, 1e9, 100, 10))
        node.allocate(80)
        with pytest.raises(CapacityError):
            node.allocate(30)
        node.release(80)
        node.allocate(100)
        assert node.utilization == 1.0

    def test_release_bounds(self):
        node = StorageNode(0, MediaModel("m", 0.001, 1e9, 100, 10))
        with pytest.raises(StorageError):
            node.release(1)

    def test_reads_accumulate_on_the_serving_node(self):
        fs = small_fs(n_nodes=1, replication=1)
        fs.create("f")
        fs.append("f", b"m" * 30)
        fs.read("f", 0, 10)
        fs.read("f", 10, 20)
        (node,) = fs.nodes
        assert node.served.io_count == 2
        assert node.served.bytes_read == 30
        assert node.served.seeks == 2
