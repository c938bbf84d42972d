"""Reference implementation ``TectonicFilesystem.read`` is tested against.

This is the body ``read`` shipped before it found its first block by
bisection: the file's length re-summed over every block, the loop
walking blocks from block 0, and bytes copied block -> ``bytearray`` ->
``bytes``.  It reads a :class:`~repro.tectonic.TectonicFilesystem`
only through ``file()``, each file's ``blocks`` and ``_route_replica``.
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
        node = filesystem._route_replica(block)
        node.record_read(take)
        out.extend(block.read(inner_offset, take))
        remaining_offset += take
        remaining_length -= take
    return bytes(out)
