"""Reference implementations the vectorized ops are tested against.

These are the per-row bodies that ``repro.transforms`` shipped before
the worker hot path was vectorized, kept verbatim as oracles, plus a
pure-Python-int splitmix64.
"""

import numpy as np

from repro.transforms import SparseColumn

MASK64 = (1 << 64) - 1


def firstx_per_row(column: SparseColumn, x: int) -> SparseColumn:
    """``FirstX.apply`` with one ``np.arange`` per row."""
    lengths = np.minimum(column.lengths(), x)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    keep = np.concatenate(
        [
            np.arange(column.offsets[i], column.offsets[i] + lengths[i])
            for i in range(len(column))
        ]
    ).astype(np.int64) if len(column) else np.empty(0, dtype=np.int64)
    values = column.values[keep]
    weights = None if column.weights is None else column.weights[keep]
    return SparseColumn(offsets, values, weights)


def buckets_from_lists(borders, values, presence) -> SparseColumn:
    """Dense ``Bucketize``/``Onehot``: a Python list per row, then packed."""
    buckets = np.searchsorted(np.asarray(borders, dtype=np.float64), values, side="right")
    lists = [
        [int(bucket)] if present else []
        for bucket, present in zip(buckets, presence)
    ]
    return SparseColumn.from_lists(lists)


def splitmix64_int(value: int) -> int:
    """The splitmix64 finalizer on one Python int, reduced mod 2**64."""
    x = (value + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


# -- PR 16: bodies the transform plane shipped before it went to the
# -- array-pass floor, moved here verbatim (only `self.` removed) ---------


def splitmix64_astype(values: np.ndarray) -> np.ndarray:
    """``splitmix64`` with a temporary per line."""
    x = values.astype(np.uint64)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def concatenate_rows_two_repeats(columns, n_rows):
    """``NGram._concatenate_rows`` with two ``repeat`` calls per column."""
    if len(columns) == 1:
        return columns[0].values, columns[0].offsets
    lengths = np.stack([np.diff(column.offsets) for column in columns])
    seq_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths.sum(axis=0), out=seq_offsets[1:])
    values = np.empty(int(seq_offsets[-1]), dtype=np.int64)
    prior = np.zeros(n_rows, dtype=np.int64)
    for column, column_lengths in zip(columns, lengths):
        reps = column_lengths
        within = np.arange(len(column.values), dtype=np.int64) - np.repeat(
            column.offsets[:-1], reps
        )
        values[np.repeat(seq_offsets[:-1] + prior, reps) + within] = column.values
        prior += column_lengths
    return values, seq_offsets


def ngram_gather_per_position(columns, n: int) -> SparseColumn:
    """``NGram.apply`` with a window-start index and one fancy gather per
    position of the window."""
    n_rows = len(columns[0])
    sequence, seq_offsets = concatenate_rows_two_repeats(columns, n_rows)
    seq_lengths = np.diff(seq_offsets)
    windows = np.maximum(seq_lengths - (n - 1), 0)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(windows, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return SparseColumn(offsets, np.empty(0, dtype=np.int64))
    base = np.repeat(seq_offsets[:-1], windows) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], windows)
    )
    mixed = np.zeros(total, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            mixed = splitmix64_astype(
                mixed.astype(np.int64) * np.int64(31) + sequence[base + j]
            )
    return SparseColumn(offsets, (mixed >> np.uint64(1)).astype(np.int64))


def sigrid_hash_remainder(column: SparseColumn, table_size: int, salt: int) -> SparseColumn:
    """``SigridHash.apply`` taking the remainder with ``%`` and copying
    the offsets and weights it keeps."""
    hashed = splitmix64_astype(column.values + np.int64(salt))
    values = (hashed % np.uint64(table_size)).astype(np.int64)
    weights = None if column.weights is None else column.weights.copy()
    return SparseColumn(column.offsets.copy(), values, weights)


def enumerate_per_row(column: SparseColumn) -> SparseColumn:
    """``Enumerate.apply`` with one ``np.arange`` per row."""
    positions = np.concatenate(
        [np.arange(n, dtype=np.int64) for n in np.diff(column.offsets)]
    ) if len(column.values) else np.empty(0, dtype=np.int64)
    weights = None if column.weights is None else column.weights.copy()
    return SparseColumn(column.offsets.copy(), positions, weights)


def map_id_per_element(column: SparseColumn, mapping: dict, default: int) -> SparseColumn:
    """``MapId.apply`` with one ``dict.get`` per ID."""
    values = np.fromiter(
        (mapping.get(int(v), default) for v in column.values),
        dtype=np.int64,
        count=len(column.values),
    )
    weights = None if column.weights is None else column.weights.copy()
    return SparseColumn(column.offsets.copy(), values, weights)


def input_elements_walk(op, batch) -> int:
    """Input elements, the unit the cost model charges by, with the
    ``hasattr`` walk ``Transform.input_elements`` once had."""
    total = 0
    for fid in op.input_ids:
        column = batch.column(fid)
        if hasattr(column, "values") and column.values.ndim == 1:
            total += len(column.values)
    return max(total, batch.n_rows)


def charge(report, op, elements: int) -> None:
    """``CostReport.charge``: one op application over *elements* inputs."""
    cycles = op.cost.cycles_per_element * elements
    report.cycles += cycles
    report.mem_bytes += op.cost.mem_bytes_per_element * elements
    report.cycles_by_class[op.op_class] += cycles
    report.elements += elements


def execute_node_at_a_time(dag, batch):
    """``execute_with_cost`` as a loop over nodes: size, apply, attach,
    charge — no plan, no fused run."""
    from repro.transforms import CostReport

    report = CostReport()
    for node in dag.compile():
        op = node.op
        elements = input_elements_walk(op, batch)
        batch.add_column(node.output_id, op.apply(batch))
        charge(report, op, elements)
    return report


# -- Python-int arithmetic, one ID at a time -------------------------------


def sigrid_hash_int(value: int, table_size: int, salt: int) -> int:
    return splitmix64_int((value + salt) & MASK64) % table_size


def ngram_hash_int(window: list[int]) -> int:
    mixed = 0
    for value in window:
        mixed = splitmix64_int((mixed * 31 + value) & MASK64)
    return mixed >> 1


# -- the per-row set loop ``IdListTransform.apply`` shipped before its
# -- sort + searchsorted form, moved here verbatim (only `self.` removed) --


def idlist_per_row(left: SparseColumn, right: SparseColumn) -> SparseColumn:
    """``IdListTransform.apply`` with one Python set per row."""
    lists = []
    for i in range(len(left)):
        right_set = set(map(int, right.row(i)))
        seen: set[int] = set()
        intersection = []
        for v in map(int, left.row(i)):
            if v in right_set and v not in seen:
                intersection.append(v)
                seen.add(v)
        lists.append(intersection)
    return SparseColumn.from_lists(lists)
