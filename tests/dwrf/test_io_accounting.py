"""I/O traces, coalescing plans, and seek accounting."""

from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import DwrfReader, EncodingOptions, IOTrace, ReadOptions, write_table_partition
from repro.dwrf.reader import plan_reads


class TestIOTrace:
    def test_counters(self):
        trace = IOTrace()
        trace.add(0, 100)
        trace.add(200, 50, useful_bytes=30)
        assert trace.io_count == 2
        assert trace.bytes_read == 150
        assert trace.useful_bytes == 130
        assert trace.overread_fraction == pytest.approx(20 / 150)

    def test_useful_bounds_enforced(self):
        trace = IOTrace()
        with pytest.raises(FormatError):
            trace.add(0, 10, useful_bytes=11)
        with pytest.raises(FormatError):
            trace.add(0, 10, useful_bytes=-1)

    def test_seek_counting(self):
        trace = IOTrace()
        trace.add(0, 100)    # seek (first read)
        trace.add(100, 50)   # sequential
        trace.add(150, 25)   # sequential
        trace.add(500, 10)   # seek
        trace.add(100, 10)   # seek (backwards)
        assert trace.seek_count() == 3

    def test_io_sizes_and_summary(self):
        trace = IOTrace()
        for size in (10, 20, 30):
            trace.add(0, size)
        assert trace.io_sizes() == [10, 20, 30]
        assert trace.size_summary().mean == pytest.approx(20)


class Needed(NamedTuple):
    """A needed byte range, as ``plan_reads`` reads one."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class TestPlanReads:
    def test_no_window_one_read_per_range(self):
        needed = [Needed(0, 10), Needed(100, 10)]
        reads = plan_reads(needed, window=0)
        assert [(r.offset, r.length, u) for r, u in reads] == [(0, 10, 10), (100, 10, 10)]

    def test_merge_within_window(self):
        needed = [Needed(0, 10), Needed(50, 10)]
        [(physical, useful)] = plan_reads(needed, window=100)
        assert (physical.offset, physical.length) == (0, 60)
        assert useful == 20

    def test_window_boundary_respected(self):
        needed = [Needed(0, 10), Needed(95, 10)]
        reads = plan_reads(needed, window=100)
        assert len(reads) == 2  # merged span would be 105 > 100

    def test_unsorted_input_handled(self):
        needed = [Needed(50, 10), Needed(0, 10)]
        [(physical, useful)] = plan_reads(needed, window=100)
        assert physical.offset == 0
        assert useful == 20

    def test_adjacent_ranges_merge_even_without_window_gap(self):
        needed = [Needed(0, 10), Needed(10, 10)]
        [(physical, useful)] = plan_reads(needed, window=20)
        assert physical.length == 20
        assert useful == 20

    def test_empty(self):
        assert plan_reads([], window=100) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(1, 500)),
            min_size=1, max_size=30,
        ),
        st.sampled_from([0, 256, 4096, 1 << 20]),
    )
    def test_plans_cover_all_useful_bytes(self, raw, window):
        # Build non-overlapping ranges from sorted starting points.
        raw = sorted(set(raw))
        needed = []
        cursor = 0
        for offset, length in raw:
            offset = max(offset, cursor)
            needed.append(Needed(offset, length))
            cursor = offset + length
        reads = plan_reads(needed, window)
        total_useful = sum(u for _, u in reads)
        assert total_useful == sum(r.length for r in needed)
        for physical, useful in reads:
            assert useful <= physical.length


class TestReaderAccounting:
    def test_projection_reduces_bytes(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        full = DwrfReader.for_file(dwrf)
        list(full.read_rows(schema))
        keep = frozenset(schema.feature_ids()[:3])
        filtered = DwrfReader.for_file(dwrf, ReadOptions(projection=keep))
        list(filtered.read_rows(schema))
        assert filtered.trace.bytes_read < full.trace.bytes_read / 2

    def test_coalescing_reduces_io_count_adds_overread(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        keep = frozenset(schema.feature_ids()[::3])
        plain = DwrfReader.for_file(dwrf, ReadOptions(projection=keep))
        list(plain.read_rows(schema))
        coalesced = DwrfReader.for_file(
            dwrf, ReadOptions(projection=keep, coalesce_window=1 << 21)
        )
        list(coalesced.read_rows(schema))
        assert coalesced.trace.io_count < plain.trace.io_count
        assert coalesced.trace.useful_bytes == plain.trace.bytes_read
        assert coalesced.trace.bytes_read >= plain.trace.bytes_read

    def test_rows_identical_with_and_without_coalescing(self, small_dataset):
        schema, rows = small_dataset
        dwrf = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
        keep = frozenset(schema.feature_ids()[::2])
        plain = list(
            DwrfReader.for_file(dwrf, ReadOptions(projection=keep)).read_rows(schema)
        )
        coalesced = list(
            DwrfReader.for_file(
                dwrf, ReadOptions(projection=keep, coalesce_window=1 << 20)
            ).read_rows(schema)
        )
        for a, b in zip(plain, coalesced):
            assert a.label == b.label
            assert a.sparse == b.sparse
            assert set(a.dense) == set(b.dense)

    def test_negative_window_rejected(self):
        with pytest.raises(FormatError):
            ReadOptions(coalesce_window=-1)
