"""LogDevice logs and Scribe categories/daemons."""

import pytest

from repro.common.errors import StorageError
from repro.datagen import Log, LogDevice, Scribe, ScribeDaemon


class TestLog:
    def test_append_assigns_monotonic_lsns(self):
        log = Log("l")
        assert [log.append(x) for x in "abc"] == [0, 1, 2]
        assert log.head_lsn == 3

    def test_read_from(self):
        log = Log("l")
        for x in "abcd":
            log.append(x)
        records = log.read_from(2)
        assert [(r.lsn, r.payload) for r in records] == [(2, "c"), (3, "d")]

    def test_read_with_limit(self):
        log = Log("l")
        for x in range(10):
            log.append(x)
        assert len(log.read_from(0, limit=3)) == 3

    def test_trim_drops_prefix(self):
        log = Log("l")
        for x in range(5):
            log.append(x)
        assert log.trim(3) == 3
        assert len(log._records) == 2
        assert log._trim_point == 3

    def test_read_below_trim_point_rejected(self):
        log = Log("l")
        log.append("a")
        log.append("b")
        log.trim(1)
        with pytest.raises(StorageError):
            log.read_from(0)

    def test_trim_beyond_head_rejected(self):
        log = Log("l")
        with pytest.raises(StorageError):
            log.trim(5)

    def test_trim_is_idempotent(self):
        log = Log("l")
        for x in range(3):
            log.append(x)
        log.trim(2)
        assert log.trim(2) == 0

    def test_appends_continue_after_trim(self):
        log = Log("l")
        log.append("a")
        log.trim(1)
        assert log.append("b") == 1
        assert [r.payload for r in log.read_from(1)] == ["b"]


    def test_reads_after_trim_keep_their_lsns(self):
        log = Log("l")
        for x in range(10):
            log.append(x)
        log.trim(4)
        assert log.head_lsn == 10
        assert [(r.lsn, r.payload) for r in log.read_from(6, limit=2)] == [(6, 6), (7, 7)]
        assert [r.lsn for r in log.read_from(4)] == list(range(4, 10))
        assert log.read_from(10) == []

    def test_earlier_trim_point_drops_nothing(self):
        log = Log("l")
        for x in range(6):
            log.append(x)
        log.trim(4)
        assert log.trim(2) == 0
        assert log._trim_point == 4
        assert len(log._records) == 2

    def test_limit_bounds_the_read(self):
        log = Log("l")
        for x in range(5):
            log.append(x)
        assert [r.lsn for r in log.read_from(1, limit=10)] == [1, 2, 3, 4]
        assert log.read_from(1, limit=0) == []


class TestLogDevice:
    def test_get_or_create(self):
        device = LogDevice()
        log = device.log("x")
        assert device.log("x") is log


class TestScribe:
    def test_categories_isolated(self):
        scribe = Scribe()
        scribe.category("a").write(1)
        scribe.category("b").write(2)
        assert [r.payload for r in scribe.category("a").read_from(0)] == [1]
        assert [r.payload for r in scribe.category("b").read_from(0)] == [2]

    def test_category_reuse(self):
        scribe = Scribe()
        assert scribe.category("a") is scribe.category("a")


class TestScribeDaemon:
    def test_buffers_until_threshold(self):
        scribe = Scribe()
        daemon = ScribeDaemon("h", scribe, flush_threshold=3)
        daemon.log("c", 1)
        daemon.log("c", 2)
        assert scribe.category("c").head_lsn == 0
        daemon.log("c", 3)  # hits threshold: auto flush
        assert scribe.category("c").head_lsn == 3

    def test_explicit_flush_all(self):
        scribe = Scribe()
        daemon = ScribeDaemon("h", scribe, flush_threshold=100)
        daemon.log("a", 1)
        daemon.log("b", 2)
        daemon.flush()
        assert scribe.category("a").head_lsn == 1
        assert scribe.category("b").head_lsn == 1
        assert daemon.records_forwarded == 2

    def test_order_preserved(self):
        scribe = Scribe()
        daemon = ScribeDaemon("h", scribe, flush_threshold=2)
        for i in range(6):
            daemon.log("c", i)
        payloads = [r.payload for r in scribe.category("c").read_from(0)]
        assert payloads == list(range(6))

    def test_threshold_validation(self):
        with pytest.raises(StorageError):
            ScribeDaemon("h", Scribe(), flush_threshold=0)
