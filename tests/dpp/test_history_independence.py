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

from .conftest import make_spec

HISTORY_RECORDS = 50_000


def calls_to_extract(worker, split) -> int:
    profile = cProfile.Profile()
    profile.enable()
    batches = list(worker.extract_batches(split))
    profile.disable()
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
