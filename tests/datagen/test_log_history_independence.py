"""Polling or trimming a log costs what it returns, not what came before.

The regression this pins: ``Log.read_from`` once walked every retained
record from the front on each call and ``Log.trim`` copied and scanned
every key, so a tailer on an untrimmed log slowed with the log's
history.  The checks are counts — Python-level calls (cProfile) and
executed lines (``sys.settrace``) — which are the same on every machine,
not wall-clock thresholds.  The walk made no calls, only loop
iterations, so it is the line count that fails on the old body.
"""

import cProfile
import pstats
import sys

from repro.datagen import Log

from ..profiling import collector_off, profiled

HISTORY_RECORDS = 50_000
NEW_RECORDS = 10


def work_of(function) -> tuple[int, int]:
    """(calls, lines executed) of one ``function()``."""
    profile = cProfile.Profile()
    with profiled(profile):
        function()

    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    with collector_off():
        sys.settrace(tracer)
        try:
            function()
        finally:
            sys.settrace(previous)
    return pstats.Stats(profile).total_calls, lines


def log_with_history(history: int) -> tuple[Log, int]:
    """A log holding *history* consumed records and a few unread ones."""
    log = Log("tailed")
    for index in range(history):
        log.append(index)
    cursor = log.head_lsn
    for index in range(NEW_RECORDS):
        log.append(("new", index))
    return log, cursor


def test_poll_work_ignores_log_history():
    fresh, fresh_cursor = log_with_history(0)
    veteran, veteran_cursor = log_with_history(HISTORY_RECORDS)

    polled = veteran.read_from(veteran_cursor)
    assert [record.lsn for record in polled] == list(
        range(HISTORY_RECORDS, HISTORY_RECORDS + NEW_RECORDS)
    )
    assert [r.payload for r in polled] == [r.payload for r in fresh.read_from(0)]

    assert work_of(lambda: veteran.read_from(veteran_cursor)) == work_of(
        lambda: fresh.read_from(fresh_cursor)
    )
    assert work_of(lambda: veteran.read_from(veteran_cursor, limit=3)) == work_of(
        lambda: fresh.read_from(fresh_cursor, limit=3)
    )


def test_trim_work_ignores_how_much_is_retained():
    small, _ = log_with_history(100)
    large, _ = log_with_history(HISTORY_RECORDS)
    # Each trim below drops the same number of records: the first call
    # of work_of drops 5, the second (traced) call drops nothing.
    assert work_of(lambda: large.trim(5)) == work_of(lambda: small.trim(5))
    assert large.trim_point == small.trim_point == 5
    assert len(large) == HISTORY_RECORDS + NEW_RECORDS - 5
