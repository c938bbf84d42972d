"""LogDevice: a reliable store for append-only, trimmable record logs.

Scribe stores each logical stream in LogDevice (Section 3.1.1).  Logs
assign monotonically increasing sequence numbers (LSNs) on append,
support reads from any LSN, and can be trimmed from the front once
downstream consumers have checkpointed past a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..common.errors import StorageError


@dataclass(frozen=True)
class LogRecord:
    """One appended record with its sequence number."""

    lsn: int
    payload: Any


class Log:
    """A single append-only, trimmable log."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Payloads of the readable LSNs in order: _records[i] holds LSN
        # _trim_point + i, so reads slice and trims delete a prefix.
        self._records: list[Any] = []
        self._trim_point = 0  # records below this LSN are gone

    def append(self, payload: Any) -> int:
        """Append a record; returns its LSN."""
        lsn = self.head_lsn
        self._records.append(payload)
        return lsn

    def read_from(self, lsn: int, limit: int | None = None) -> list[LogRecord]:
        """Read records with sequence number ≥ *lsn* in order."""
        if lsn < self._trim_point:
            raise StorageError(
                f"log {self.name}: LSN {lsn} is below trim point {self._trim_point}"
            )
        start = lsn - self._trim_point
        stop = None if limit is None else start + max(limit, 0)
        return [
            LogRecord(record_lsn, payload)
            for record_lsn, payload in enumerate(self._records[start:stop], lsn)
        ]

    def trim(self, up_to_lsn: int) -> int:
        """Drop records below *up_to_lsn*; returns how many were dropped."""
        if up_to_lsn > self.head_lsn:
            raise StorageError("cannot trim beyond the log head")
        dropped = max(0, up_to_lsn - self._trim_point)
        del self._records[:dropped]
        self._trim_point += dropped
        return dropped

    @property
    def head_lsn(self) -> int:
        """LSN the next append will receive."""
        return self._trim_point + len(self._records)


class LogDevice:
    """A namespace of logs."""

    def __init__(self) -> None:
        self._logs: dict[str, Log] = {}

    def log(self, name: str) -> Log:
        """Get or create a log."""
        if name not in self._logs:
            self._logs[name] = Log(name)
        return self._logs[name]
