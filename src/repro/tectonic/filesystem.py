"""The Tectonic filesystem: append-only files over replicated blocks.

Files are append-only (Section 3.1.2); writers append bytes which are
chunked into blocks, each block placed on ``replication`` distinct
nodes chosen by free capacity.  Reads address a (file, offset, length)
range; the filesystem routes each block-range to one replica and
accounts the I/O on that node.

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

_VIRTUAL_READ = "cannot read payload of a virtual block"


@dataclass
class TectonicFile:
    """Metadata for one append-only file.

    ``blocks``, ``length`` (total bytes) and ``block_starts`` (each
    block's offset in the file) change only in :meth:`add_block`, the
    one place a block joins a file, so a read finds its first block by
    bisection.
    """

    name: str
    blocks: list[Block] = field(default_factory=list, init=False)
    sealed: bool = False
    length: int = field(default=0, init=False)
    block_starts: list[int] = field(default_factory=list, init=False)

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
                self.nodes[node_id].release(block.length)
        del self._files[name]

    def list_files(self) -> list[str]:
        """All file names."""
        return sorted(self._files)

    # -- writes --------------------------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        """Append bytes to a file, chunking into materialized blocks."""
        file = self.file(name)
        if file.sealed:
            raise StorageError(f"file {name} is sealed (append-only, immutable)")
        for start in range(0, len(data), self.chunk_bytes):
            chunk = data[start : start + self.chunk_bytes]
            self._add_block(file, len(chunk), chunk)

    def append_virtual(self, name: str, n_bytes: int) -> None:
        """Append size-only blocks (for provisioning-scale studies)."""
        file = self.file(name)
        if file.sealed:
            raise StorageError(f"file {name} is sealed (append-only, immutable)")
        remaining = n_bytes
        while remaining > 0:
            chunk = min(remaining, self.chunk_bytes)
            self._add_block(file, chunk, None)
            remaining -= chunk

    def seal(self, name: str) -> None:
        """Seal a file; further appends are rejected."""
        self.file(name).sealed = True

    def _add_block(self, file: TectonicFile, length: int, data: bytes | None) -> None:
        replicas = self._pick_replicas()
        for node_id in replicas:
            self.nodes[node_id].allocate(length)
        file.add_block(
            Block(
                block_id=next(self._block_ids),
                file_name=file.name,
                index=len(file.blocks),
                length=length,
                data=data,
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

        Each covering block is charged to one of its replicas, chosen
        round-robin across the filesystem.  The bytes are taken before
        any node is charged, so a read that raises (a virtual block in
        the range) is not accounted as served.
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
        if not length:
            return b""  # touches no block
        starts = file.block_starts
        blocks = file.blocks
        index = bisect_right(starts, offset) - 1
        block = blocks[index]
        inner_offset = offset - starts[index]
        if inner_offset + length <= block.length:  # the common read: one block
            data = block.data
            if data is None:
                raise StorageError(_VIRTUAL_READ)
            out = data[inner_offset : inner_offset + length]
            charges = ((block, length),)
        else:
            pieces = []
            charges = []
            while offset < end:
                block = blocks[index]
                data = block.data
                if data is None:
                    raise StorageError(_VIRTUAL_READ)
                inner_offset = offset - starts[index]
                take = min(block.length - inner_offset, end - offset)
                pieces.append(data[inner_offset : inner_offset + take])
                charges.append((block, take))
                offset += take
                index += 1
            out = b"".join(pieces)
        nodes = self.nodes
        rr = self._replica_rr
        for block, n_bytes in charges:
            replicas = block.replica_nodes
            served = nodes[replicas[rr % len(replicas)]].served
            rr += 1
            served.io_count += 1
            served.bytes_read += n_bytes
        self._replica_rr = rr
        return out

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
