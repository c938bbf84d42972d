"""What the read path does per stripe, held by counts rather than timings.

A count of calls is the same on every machine.  These pin the
structural facts the one-pass read path rests on: over-read bytes are
never copied, checked or deciphered; what depends on bytes runs once
per stripe (one XOR, one trace extension) with one inflate per needed
stream; and a stripe is planned once per reader.  (That a worker keeps
one reader per file is in ``tests/dpp``.)
"""

import types
import zlib

import numpy as np
import pytest

from repro.dwrf import DwrfReader, EncodingOptions, ReadOptions, write_table_partition
from repro.dwrf import encoding, reader as reader_module


@pytest.mark.parametrize("window", [0, 512, 1_310_720])
def test_unseal_runs_once_per_needed_stream_and_never_on_overread(
    small_dataset, window, monkeypatch
):
    schema, rows = small_dataset
    dwrf_file = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
    keep = frozenset(schema.feature_ids()[::3])
    needed = [
        info
        for stripe in dwrf_file.footer.stripes
        for info in stripe.streams
        if info.feature_id == -1 or info.feature_id in keep
    ]
    n_stripes = len(dwrf_file.footer.stripes)
    checked, inflated, xored, extensions = [], [], [], []

    def counting(calls, real):
        def call(data, *args, **kwargs):
            calls.append(len(data))
            return real(data, *args, **kwargs)

        return call

    # The reader's own view of zlib, and numpy's XOR wherever it is
    # called from.  (What is copied into the scratch is the slice the
    # CRC saw; test_scratch_unseal.py bounds the scratch by the needed
    # bytes, so over-read has nowhere to go.)
    monkeypatch.setattr(
        reader_module,
        "zlib",
        types.SimpleNamespace(
            crc32=counting(checked, zlib.crc32),
            decompress=counting(inflated, zlib.decompress),
            error=zlib.error,
        ),
    )
    monkeypatch.setattr(np, "bitwise_xor", counting(xored, np.bitwise_xor))
    monkeypatch.setattr(encoding, "unseal", None)  # the per-stream form is gone
    reader = DwrfReader.for_file(dwrf_file, ReadOptions(keep, window))
    monkeypatch.setattr(
        reader.trace, "extend", counting(extensions, reader.trace.extend)
    )
    monkeypatch.setattr(reader.trace, "add", None)  # nor one step per read
    for index in range(n_stripes):
        reader.decode_stripe(index, schema)
    assert len(inflated) == len(needed)
    assert sum(inflated) == reader.trace.useful_bytes
    assert sum(inflated) == sum(info.length for info in needed)
    assert checked == inflated  # each needed stream checked once, nothing else
    # One XOR and one trace extension per stripe; what is XORed is the
    # needed bytes plus less than a key period of padding per stream.
    assert len(xored) == len(extensions) == n_stripes
    padding = sum(xored) - sum(inflated)
    assert 0 <= padding < encoding.KEY_PERIOD * len(needed)
    assert sum(extensions) == reader.trace.io_count
    if window:
        assert reader.trace.bytes_read > reader.trace.useful_bytes  # it over-read
        assert reader.trace.io_count < len(needed)


def test_a_stripe_is_planned_once_per_reader(small_dataset, monkeypatch):
    schema, rows = small_dataset
    dwrf_file = write_table_partition(rows, schema, EncodingOptions(stripe_rows=64))
    calls = []
    real_plan_reads = reader_module.plan_reads

    def counting_plan_reads(needed, window):
        calls.append(len(needed))
        return real_plan_reads(needed, window)

    monkeypatch.setattr(reader_module, "plan_reads", counting_plan_reads)
    keep = frozenset(schema.feature_ids()[:4])
    reader = DwrfReader.for_file(dwrf_file, ReadOptions(keep, 1 << 20))
    n_stripes = len(dwrf_file.footer.stripes)
    first = [reader.read_stripe(index, schema) for index in range(n_stripes)]
    assert len(calls) == n_stripes
    again = [reader.read_stripe(index, schema) for index in range(n_stripes)]
    for index in range(n_stripes):
        reader.decode_stripe(index, schema)
    assert len(calls) == n_stripes  # no second plan, by either entry point
    assert again == first
    # A second reader shares nothing with the first.
    DwrfReader.for_file(dwrf_file, ReadOptions(keep, 0)).read_stripe(0, schema)
    assert len(calls) == n_stripes + 1
