"""Scribe: the global distributed messaging layer.

Every serving host runs a Scribe daemon; services pass raw feature and
event logs to it, and Scribe "groups logs into record-oriented logical
streams and stores each stream into LogDevice" (Section 3.1.1).  The
daemon buffers locally and flushes batches to the category's backing
log, which is how Scribe absorbs producer burstiness.
"""

from __future__ import annotations

from typing import Any

from ..common.errors import StorageError
from .logdevice import LogDevice, LogRecord


class ScribeCategory:
    """One logical stream (category) backed by a LogDevice log."""

    def __init__(self, name: str, logdevice: LogDevice) -> None:
        self.name = name
        self._log = logdevice.log(f"scribe/{name}")

    def write(self, payload: Any) -> int:
        """Append one record to the category; returns its LSN."""
        return self._log.append(payload)

    def read_from(self, lsn: int, limit: int | None = None) -> list[LogRecord]:
        """Read records for a consumer positioned at *lsn*."""
        return self._log.read_from(lsn, limit)

    def trim(self, up_to_lsn: int) -> int:
        """Retention/checkpoint trim."""
        return self._log.trim(up_to_lsn)

    @property
    def head_lsn(self) -> int:
        """Next LSN to be written."""
        return self._log.head_lsn


class Scribe:
    """Category namespace shared by all daemons."""

    def __init__(self, logdevice: LogDevice | None = None) -> None:
        self._logdevice = logdevice or LogDevice()
        self._categories: dict[str, ScribeCategory] = {}

    def category(self, name: str) -> ScribeCategory:
        """Get or create a category."""
        if name not in self._categories:
            self._categories[name] = ScribeCategory(name, self._logdevice)
        return self._categories[name]


class ScribeDaemon:
    """Per-host daemon: local buffering in front of the category logs."""

    def __init__(self, host: str, scribe: Scribe, flush_threshold: int = 64) -> None:
        if flush_threshold <= 0:
            raise StorageError("flush threshold must be positive")
        self.host = host
        self._scribe = scribe
        self._flush_threshold = flush_threshold
        self._buffers: dict[str, list[Any]] = {}
        self.records_forwarded = 0

    def log(self, category: str, payload: Any) -> None:
        """Accept one record from a local service."""
        buffer = self._buffers.setdefault(category, [])
        buffer.append(payload)
        if len(buffer) >= self._flush_threshold:
            self.flush(category)

    def flush(self, category: str | None = None) -> None:
        """Flush one category's buffer (or all of them) to the stream."""
        names = [category] if category is not None else list(self._buffers)
        for name in names:
            buffer = self._buffers.get(name, [])
            stream = self._scribe.category(name)
            for payload in buffer:
                stream.write(payload)
                self.records_forwarded += 1
            self._buffers[name] = []
