"""Reference implementation ``TectonicFilesystem.read`` is charged against.

This is the body ``read`` shipped before it found its first block by
bisection: the file's length re-summed over every block, and the loop
walking blocks from block 0, charging each covered block's replica.  It
reads a :class:`~repro.tectonic.TectonicFilesystem` only through
``file()``, each file's ``blocks``, the replica cursor ``_replica_rr``
and the ``nodes``.  The per-block helpers it called before ``read``
became one body are kept below as they shipped: ``route_replica``
(``TectonicFilesystem._route_replica``) and ``record_read``
(``StorageNode.record_read``).

The bytes are not the oracle's business.  A file keeps its bytes as one
payload and a block only places them, so the body's block-by-block copy
has nothing left to copy from; the differential checks the bytes
``read`` returns against its own log of what it appended.
"""

from repro.common.errors import StorageError


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


def oracle_charge(filesystem, name: str, offset: int, length: int) -> None:
    """Charge a read of a byte range to each covering block's replica."""
    file = filesystem.file(name)
    file_length = sum(block.length for block in file.blocks)
    if offset < 0 or offset + length > file_length:
        raise StorageError(
            f"read [{offset}, {offset + length}) beyond file of {file_length}"
        )
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
        record_read(route_replica(filesystem, block), take)
        remaining_offset += take
        remaining_length -= take
