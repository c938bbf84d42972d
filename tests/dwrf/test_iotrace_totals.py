"""IOTrace keeps running totals: they must always equal a re-sum of
``records``, however the records got there."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import IORecord, IOTrace


@st.composite
def reads(draw):
    length = draw(st.integers(min_value=0, max_value=1 << 22))
    useful = draw(st.none() | st.integers(min_value=0, max_value=length))
    return draw(st.integers(min_value=0, max_value=1 << 40)), length, useful


# A program is a sequence of steps: one add(), or a merge() of a whole
# other trace built from its own adds.
steps = st.lists(reads() | st.lists(reads(), max_size=5), max_size=12)


def assert_totals_match_records(trace: IOTrace) -> None:
    assert trace.bytes_read == sum(r.length for r in trace.records)
    assert trace.useful_bytes == sum(r.useful_bytes for r in trace.records)
    assert trace.io_count == len(trace.records)


@given(steps)
def test_totals_equal_resummed_records_after_any_add_merge_sequence(program):
    trace = IOTrace()
    expected = []
    for step in program:
        if isinstance(step, tuple):
            trace.add(*step)
            expected.append(step)
        else:
            other = IOTrace()
            for read in step:
                other.add(*read)
            trace.merge(other)
            expected.extend(step)
            assert_totals_match_records(other)
        assert_totals_match_records(trace)
    assert trace.records == [
        IORecord(offset, length, length if useful is None else useful)
        for offset, length, useful in expected
    ]


def test_construction_from_records_computes_totals():
    records = [IORecord(0, 100, 40), IORecord(100, 50, 50)]
    trace = IOTrace(records=records)
    assert trace.records == records
    assert_totals_match_records(trace)
    assert (trace.bytes_read, trace.useful_bytes) == (150, 90)
    trace.add(500, 10)
    assert len(records) == 2  # the caller's list is not adopted


def test_construction_and_merge_keep_the_range_check():
    bad = IORecord(0, 10, 11)
    with pytest.raises(FormatError):
        IOTrace(records=[bad])
    other = IOTrace()
    other.records.append(bad)  # bypasses add(): merge must still refuse it
    with pytest.raises(FormatError):
        IOTrace().merge(other)
