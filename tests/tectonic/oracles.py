"""Reference implementation ``TectonicFilesystem.read`` is tested against.

This is the body ``read`` shipped before it found its first block by
bisection: the file's length re-summed over every block, the loop
walking blocks from block 0, and bytes copied block -> ``bytearray`` ->
``bytes``.  It reads a :class:`~repro.tectonic.TectonicFilesystem`
only through ``file()``, each file's ``blocks`` and ``_route_replica``.

One thing in it is newer than that body: it walks the covered blocks
twice, taking the bytes first and charging the nodes second.  The body
as shipped charged each block's replica before reading the block, so a
range that ended in a virtual block raised ``StorageError`` after
accounting the leading blocks as served — a bug in both, fixed in both.
"""

from repro.common.errors import StorageError


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
        out.extend(block.read(inner_offset, take))
        touched.append((block, take))
        remaining_offset += take
        remaining_length -= take
    for block, take in touched:
        node = filesystem._route_replica(block)
        node.record_read(take)
    return bytes(out)
