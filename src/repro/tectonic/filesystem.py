"""The Tectonic filesystem: append-only files over replicated blocks.

Files are append-only (Section 3.1.2).  A file keeps its bytes as one
payload; an append extends it and is chunked into blocks, each block
placed on ``replication`` distinct nodes chosen by free capacity.
Reads address a (file, offset, length) range: the bytes are a slice of
the payload, and each covered block is charged to one of its replicas.

The filesystem exposes :meth:`TectonicFilesystem.fetcher`, an adapter
matching the DWRF reader's byte-range interface, so the columnar layer
reads "through" real placement and I/O accounting.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

from ..common.errors import StorageError
from .block import Block
from .media import TECTONIC_CHUNK_BYTES, MediaModel, hdd_node
from .node import StorageNode


@dataclass
class TectonicFile:
    """One append-only file: its bytes and the blocks that place them.

    ``data`` is the whole payload, one ``bytes``.  ``blocks``,
    ``length`` (total bytes) and ``block_starts`` (each block's offset
    in the file) change only in :meth:`add_block`, the one place a
    block joins a file, so a read finds its first block by bisection.
    """

    name: str
    blocks: list[Block] = field(default_factory=list, init=False)
    sealed: bool = False
    length: int = field(default=0, init=False)
    block_starts: list[int] = field(default_factory=list, init=False)
    data: bytes = field(default=b"", init=False, repr=False)

    def add_block(self, block: Block) -> None:
        """Append *block* at the current end of the file."""
        self.block_starts.append(self.length)
        self.blocks.append(block)
        self.length += block.length


class TectonicFilesystem:
    """An in-process model of Tectonic: nodes, placement, replication."""

    def __init__(
        self,
        n_nodes: int = 6,
        media: MediaModel | None = None,
        replication: int = 3,
        chunk_bytes: int = TECTONIC_CHUNK_BYTES,
    ) -> None:
        if n_nodes < replication:
            raise StorageError(
                f"need at least {replication} nodes for {replication}x replication"
            )
        if chunk_bytes <= 0:
            raise StorageError("chunk size must be positive")
        self.media = media or hdd_node()
        self.nodes = [StorageNode(i, self.media) for i in range(n_nodes)]
        self.replication = replication
        self.chunk_bytes = chunk_bytes
        self._files: dict[str, TectonicFile] = {}
        self._block_ids = itertools.count()
        self._replica_rr = 0

    # -- namespace ---------------------------------------------------------

    def create(self, name: str) -> TectonicFile:
        """Create a new empty file."""
        if name in self._files:
            raise StorageError(f"file {name} already exists")
        file = TectonicFile(name)
        self._files[name] = file
        return file

    def file(self, name: str) -> TectonicFile:
        """Look up a file by name."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no file named {name}") from None

    def delete(self, name: str) -> None:
        """Delete a file, releasing replica capacity."""
        file = self.file(name)
        for block in file.blocks:
            for node_id in block.replica_nodes:
                self.nodes[node_id].used_bytes -= block.length
        del self._files[name]

    def list_files(self) -> list[str]:
        """All file names."""
        return sorted(self._files)

    # -- writes --------------------------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        """Append bytes to a file, placing them in chunk-sized blocks.

        The file's first bytes are the caller's object itself; a later
        append concatenates, so the payload is never over-allocated.
        """
        file = self.file(name)
        if file.sealed:
            raise StorageError(f"file {name} is sealed (append-only, immutable)")
        for start in range(0, len(data), self.chunk_bytes):
            self._add_block(file, min(self.chunk_bytes, len(data) - start))
        file.data = file.data + data if file.data else data

    def seal(self, name: str) -> None:
        """Seal a file; further appends are rejected."""
        self.file(name).sealed = True

    def _add_block(self, file: TectonicFile, length: int) -> None:
        replicas = self._pick_replicas()
        for node_id in replicas:
            self.nodes[node_id].allocate(length)
        file.add_block(
            Block(
                block_id=next(self._block_ids),
                file_name=file.name,
                index=len(file.blocks),
                length=length,
                replica_nodes=replicas,
            )
        )

    def _pick_replicas(self) -> tuple[int, ...]:
        """Place replicas on the nodes with the most free space."""
        ranked = sorted(self.nodes, key=lambda node: node.used_bytes)
        return tuple(node.node_id for node in ranked[: self.replication])

    # -- reads ---------------------------------------------------------------

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read a byte range, touching each covering block's replica.

        The bytes are a slice of the file's payload.  Each covering
        block, found from the first by bisection, is charged to one of
        its replicas, chosen round-robin across the filesystem.
        """
        try:
            file = self._files[name]
        except KeyError:
            raise StorageError(f"no file named {name}") from None
        end = offset + length
        if offset < 0 or length < 0 or end > file.length:
            raise StorageError(
                f"read [{offset}, {end}) beyond file of {file.length}"
            )
        starts = file.block_starts
        blocks = file.blocks
        nodes = self.nodes
        rr = self._replica_rr
        index = bisect_right(starts, offset) - 1
        cursor = offset
        while cursor < end:
            block = blocks[index]
            block_end = starts[index] + block.length
            replicas = block.replica_nodes
            served = nodes[replicas[rr % len(replicas)]].served
            rr += 1
            served.io_count += 1
            served.bytes_read += min(block_end, end) - cursor
            cursor = block_end
            index += 1
        self._replica_rr = rr
        return file.data[offset:end]

    def fetcher(self, name: str):
        """A ``(offset, length) -> bytes`` adapter for the DWRF reader."""
        return partial(self.read, name)

    # -- accounting ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes allocated across all nodes (includes replication)."""
        return sum(node.used_bytes for node in self.nodes)

    def logical_bytes(self) -> int:
        """Bytes of file content (before replication)."""
        return sum(file.length for file in self._files.values())

    def total_io(self) -> tuple[int, int]:
        """(reads served, bytes read) across all nodes."""
        reads = sum(node.served.io_count for node in self.nodes)
        read_bytes = sum(node.served.bytes_read for node in self.nodes)
        return reads, read_bytes
