"""What the columnar hand-off costs, as counts that repeat on any machine.

Two regressions are pinned.  A populated table must reach its file
without any number leaving numpy: no row's maps are built, nothing is
re-read with ``numpy.fromiter``, and the only ``tolist`` per batch is the
one that hands each row its label.  And a stripe's cost must follow its
own rows, not the batch they were cut from: packing 64 rows reads the
same number of array elements and runs the same number of Python lines
whether the batch holds 64 rows or 4 096.
"""

import cProfile
import pstats
import sys

import numpy as np
import pytest

from repro.dwrf import EncodingOptions
from repro.dwrf import stripe as stripe_module
from repro.dwrf.stripe import StripeColumnarBuilder
from repro.tectonic import TectonicFilesystem
from repro.warehouse import DatasetProfile, SampleGenerator, Table, publish_table
from repro.warehouse.row import FeatureColumn, SampleBatch

FROMITER = "<built-in method numpy.fromiter>"
TOLIST = "<method 'tolist' of 'numpy.ndarray' objects>"


def builtin_calls(profile: cProfile.Profile) -> dict[str, int]:
    stats = pstats.Stats(profile).stats
    return {name: calls for (_, _, name), (_, calls, *_) in stats.items()}


@pytest.mark.parametrize(
    "n_features, rows_per_partition", [(4, 50), (4, 700), (40, 50), (40, 700)]
)
def test_populate_then_publish_keeps_every_number_in_numpy(
    n_features, rows_per_partition
):
    profile = DatasetProfile(
        n_dense=n_features, n_sparse=n_features, n_scored=n_features // 2,
        avg_coverage=0.5, avg_sparse_length=4.0,
    )
    generator = SampleGenerator(profile, seed=2)
    table = Table(generator.build_schema("counted"))
    partitions = ["p0", "p1", "p2"]

    recorder = cProfile.Profile()
    recorder.enable()
    generator.populate_table(table, partitions, rows_per_partition)
    footers = publish_table(
        TectonicFilesystem(n_nodes=3), table, EncodingOptions(stripe_rows=256)
    )
    recorder.disable()

    assert sum(f.row_count for f in footers.values()) == 3 * rows_per_partition
    batches = {id(row.batch): row.batch for row in table.scan()}
    assert len(batches) == len(partitions)  # one per partition, none detached
    assert not any(batch.maps_built for batch in batches.values())
    calls = builtin_calls(recorder)
    assert calls.get(FROMITER, 0) == 0
    assert calls.get(TOLIST, 0) == len(batches)


class Counted(np.ndarray):
    """An array that tallies how many of its elements each operation reads.

    Slices stay ``Counted``, so reading a prefix and reducing it counts
    twice; anything numpy computes *from* a counted array comes back
    plain, its size by then a matter of the caller's own rows.
    """

    tally = 0

    def __getitem__(self, key):
        cut = super().__getitem__(key)
        Counted.tally += np.size(cut)
        return cut

    def searchsorted(self, probes, *args, **kwargs):
        Counted.tally += np.size(probes)  # a binary search per probe
        return self.view(np.ndarray).searchsorted(probes, *args, **kwargs)

    def tolist(self):
        Counted.tally += self.size
        return self.view(np.ndarray).tolist()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*_plain(inputs), **_plain(kwargs))

    def __array_function__(self, func, types, args, kwargs):
        return func(*_plain(args), **_plain(kwargs))


def _plain(value):
    """*value* with every counted array tallied and handed over plain."""
    if isinstance(value, Counted):
        Counted.tally += value.size
        return value.view(np.ndarray)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def window_of(big: SampleBatch, lo: int, hi: int) -> SampleBatch:
    """Batch rows ``[lo, hi)`` of *big* as a counted batch of their own (copies)."""

    def own(array):
        return array.copy().view(Counted)

    columns = {}
    for fid, column in big.columns.items():
        a, b = column.rows.searchsorted((lo, hi))
        if a == b:
            continue
        if column.values is not None:
            columns[fid] = FeatureColumn(own(column.rows[a:b] - lo), own(column.values[a:b]))
            continue
        flat = slice(column.starts[a], column.starts[b])
        columns[fid] = FeatureColumn(
            own(column.rows[a:b] - lo),
            lengths=own(column.lengths[a:b]),
            ids=own(column.ids[flat]),
            scores=None if column.scores is None else own(column.scores[flat]),
        )
    return SampleBatch(big.labels[lo:hi].copy(), columns)


def pack(schema, rows):
    """(streams, array elements read, Python lines run) of packing one stripe."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != stripe_module.__file__:
            return None
        lines += event == "line"
        return tracer

    builder = StripeColumnarBuilder(schema, EncodingOptions(stripe_rows=len(rows)))
    Counted.tally = 0
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for row in rows:
            builder.add_row(row)
        streams = builder.build()
    finally:
        sys.settrace(previous)
    return [(s.feature_id, s.kind, s.payload) for s in streams], Counted.tally, lines


@pytest.mark.parametrize("step", [1, 3], ids=["consecutive", "every-third"])
def test_a_stripe_costs_its_own_rows_whatever_batch_it_is_cut_from(step):
    profile = DatasetProfile(
        n_dense=5, n_sparse=4, n_scored=2, avg_coverage=0.5, avg_sparse_length=6.0
    )
    generator = SampleGenerator(profile, seed=8)
    schema = generator.build_schema("windows")
    drawn = generator.generate_batch(schema, 4096)
    big = window_of(drawn, 0, 4096)
    small = window_of(drawn, 1984, 2048)
    for batch in (big, small):
        for column in batch.columns.values():
            if column.lengths is not None:
                # Each column's id offsets are summed once, on first use,
                # for every stripe after it: not part of any one stripe.
                column.starts
                column._starts = column._starts.view(Counted)

    from_big = pack(schema, big.rows()[1984:2048:step])
    from_small = pack(schema, small.rows()[::step])
    assert from_big[0] == from_small[0]  # the same stripe, byte for byte
    assert from_big[1] == from_small[1] > 0
    assert from_big[2] == from_small[2] > 0
    assert not big.maps_built and not small.maps_built

    # The tally does see a rescan: reading the maps walks whole columns.
    Counted.tally = 0
    big.maps()
    assert Counted.tally > 20 * from_big[1]
