"""Extracting a split costs the same whatever the worker did before.

The regression this pins: ``_extract_split`` once re-summed every
``IORecord`` the worker had ever issued, four times per stripe, so a
long-lived serving worker slowed with its own history.  The check is a
count of Python-level calls, which is the same on every machine, not a
wall-clock threshold.
"""

import cProfile
import pstats

from repro.dpp import DppSession

from ..profiling import profiled
from .conftest import make_spec

HISTORY_RECORDS = 50_000


def calls_to_extract(worker, split) -> int:
    profile = cProfile.Profile()
    with profiled(profile):
        batches = list(worker.extract_batches(split))
    assert batches
    return pstats.Stats(profile).total_calls


def test_extract_call_count_ignores_io_history(published):
    filesystem, schema, footers, _ = published
    session = DppSession(make_spec(schema), filesystem, schema, footers, n_workers=3)
    warm, fresh, veteran = session.workers
    split = session.master.request_split(warm.worker_id)
    # One pass first, so lazily built state shared through the footers
    # (the stripes' stream indexes) exists before either count is taken.
    calls_to_extract(warm, split)

    for index in range(HISTORY_RECORDS):
        veteran.io_trace.add(index * 64, 64, 32)
    assert veteran.io_trace.io_count == HISTORY_RECORDS

    assert calls_to_extract(veteran, split) == calls_to_extract(fresh, split)
    assert veteran.io_trace.io_count > HISTORY_RECORDS  # it really read


def calls_to_deposit(worker, tensors) -> int:
    profile = cProfile.Profile()
    with profiled(profile):
        worker.deposit(tensors)
    return pstats.Stats(profile).total_calls


def test_deposit_call_count_ignores_buffer_depth(published):
    """``deposit`` once re-summed ``nbytes()`` over the whole buffer per
    batch; the running total must cost the same at any depth and agree
    with the sum at every moment it is read."""
    filesystem, schema, footers, _ = published
    spec = make_spec(schema, batch_size=16)  # four batches to a stripe
    session = DppSession(spec, filesystem, schema, footers, n_workers=1)
    (worker,) = session.workers
    split = session.master.request_split(worker.worker_id)
    ready = []
    for sequence, batch in enumerate(worker.extract_batches(split)):
        worker.transform_batch(batch)
        ready.append(worker.tensorize(batch, split.split_id, sequence))
    assert len(ready) >= 3

    def resident() -> int:
        return sum(tensors.nbytes() for tensors in worker.buffer)

    counts = []
    for tensors in ready:
        counts.append(calls_to_deposit(worker, tensors))
        assert worker.stats.usage.memory_resident_bytes == resident()
    assert len(set(counts)) == 1, counts  # depth 0, 1, 2, ... all alike

    worker.serve_batch()
    worker.deposit(ready[0])
    assert worker.stats.usage.memory_resident_bytes == resident()
    worker.fail()
    assert not worker.buffer and worker._buffered_bytes == 0
