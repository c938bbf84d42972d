"""Reference implementation ``TectonicFilesystem.read`` is tested against.

This is the body ``read`` shipped before it found its first block by
bisection: the file's length re-summed over every block, the loop
walking blocks from block 0, and bytes copied block -> ``bytearray`` ->
``bytes``.  It reads a :class:`~repro.tectonic.TectonicFilesystem`
only through ``file()``, each file's ``blocks``, the replica cursor
``_replica_rr`` and the ``nodes``.  The per-block helpers it called
before ``read`` became one body are kept below as they shipped:
``block_read`` (``Block.read``), ``route_replica``
(``TectonicFilesystem._route_replica``) and ``record_read``
(``StorageNode.record_read``).

One thing in it is newer than that body: it walks the covered blocks
twice, taking the bytes first and charging the nodes second.  The body
as shipped charged each block's replica before reading the block, so a
range that ended in a virtual block raised ``StorageError`` after
accounting the leading blocks as served — a bug in both, fixed in both.
"""

from repro.common.errors import StorageError


def block_read(block, offset: int, length: int) -> bytes:
    """Read a byte range from a materialized block."""
    if block.data is None:
        raise StorageError("cannot read payload of a virtual block")
    if offset < 0 or length < 0 or offset + length > block.length:
        raise StorageError(
            f"read [{offset}, {offset + length}) outside block of {block.length}"
        )
    return block.data[offset : offset + length]


def route_replica(filesystem, block):
    """Round-robin reads across a block's replicas."""
    replicas = block.replica_nodes
    node_id = replicas[filesystem._replica_rr % len(replicas)]
    filesystem._replica_rr += 1
    return filesystem.nodes[node_id]


def record_read(node, n_bytes: int) -> None:
    """Account one served read."""
    served = node.served
    served.io_count += 1
    served.bytes_read += n_bytes


def oracle_read(filesystem, name: str, offset: int, length: int) -> bytes:
    """Read a byte range, touching each covering block's replica."""
    file = filesystem.file(name)
    file_length = sum(block.length for block in file.blocks)
    if offset < 0 or offset + length > file_length:
        raise StorageError(
            f"read [{offset}, {offset + length}) beyond file of {file_length}"
        )
    out = bytearray()
    touched = []
    cursor = 0
    remaining_offset = offset
    remaining_length = length
    for block in file.blocks:
        block_start = cursor
        block_end = cursor + block.length
        cursor = block_end
        if block_end <= remaining_offset:
            continue
        if remaining_length <= 0:
            break
        inner_offset = remaining_offset - block_start
        take = min(block.length - inner_offset, remaining_length)
        out.extend(block_read(block, inner_offset, take))
        touched.append((block, take))
        remaining_offset += take
        remaining_length -= take
    for block, take in touched:
        record_read(route_replica(filesystem, block), take)
    return bytes(out)
