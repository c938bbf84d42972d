"""ETL: joining and labeling raw logs into training samples.

Two engines mirror Section 3.1.1:

* :class:`StreamingJoiner` — continuously joins feature and event
  streams on request ID within a time window, publishing labeled
  samples to an output Scribe category (the path that feeds
  in-production model updates).
* :class:`BatchPartitioner` — drains labeled samples into dated
  warehouse partitions (the path that builds offline datasets for
  training new model versions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..common.errors import StorageError
from ..warehouse.table import Table
from .events import EventLog, FeatureLog, label_from_event
from .scribe import Scribe

LABELED_CATEGORY = "labeled_samples"


@dataclass
class JoinStats:
    """Join-quality counters."""

    features_seen: int = 0
    events_seen: int = 0
    joined: int = 0
    expired_unjoined: int = 0


class StreamingJoiner:
    """Window-join of feature and event streams on request ID."""

    def __init__(
        self,
        scribe: Scribe,
        features_category: str,
        events_category: str,
        output_category: str = LABELED_CATEGORY,
        join_window_s: float = 600.0,
    ) -> None:
        if not (join_window_s > 0 and math.isfinite(join_window_s)):
            raise StorageError(
                f"join window must be positive and finite, got {join_window_s}"
            )
        self._features = scribe.category(features_category)
        self._events = scribe.category(events_category)
        self._output = scribe.category(output_category)
        self._window = join_window_s
        self._pending: dict[int, FeatureLog] = {}
        self._feature_cursor = 0
        self._event_cursor = 0
        self.stats = JoinStats()

    def run_once(self, now: float) -> int:
        """Consume new records from both streams; returns samples emitted.

        Features wait in a pending buffer until their event arrives or
        the join window expires (unengaged impressions expire into
        negative samples only if an explicit negative event exists —
        expired features are dropped, mirroring lossy joins).  A joined
        record's sample is emitted relabeled (:meth:`Row.relabeled
        <repro.warehouse.row.Row.relabeled>`): a view of the served
        batch row stays a view, so the join builds no map.
        """
        for record in self._features.read_from(self._feature_cursor):
            self._feature_cursor = record.lsn + 1
            feature_log: FeatureLog = record.payload
            self._pending[feature_log.request_id] = feature_log
            self.stats.features_seen += 1

        emitted = 0
        for record in self._events.read_from(self._event_cursor):
            self._event_cursor = record.lsn + 1
            event: EventLog = record.payload
            self.stats.events_seen += 1
            feature_log = self._pending.pop(event.request_id, None)
            if feature_log is None:
                continue  # event without (or after) features: dropped
            # The labeled sample is the logged sample under the event's
            # label: the same batch row while it is a view, else the
            # record's maps as they are.  Nothing may mutate them
            # (retention replaces a row's map when it reaps).
            row = feature_log.sample.relabeled(label_from_event(event))
            self._output.write((feature_log.timestamp, row))
            self.stats.joined += 1
            emitted += 1

        # Expire features whose join window has passed.
        expired = [
            rid
            for rid, feature_log in self._pending.items()
            if now - feature_log.timestamp > self._window
        ]
        for rid in expired:
            del self._pending[rid]
            self.stats.expired_unjoined += 1
        return emitted


class BatchPartitioner:
    """Drains labeled samples into dated partitions of a warehouse table."""

    def __init__(
        self,
        scribe: Scribe,
        table: Table,
        input_category: str = LABELED_CATEGORY,
        partition_period_s: float = 86_400.0,
    ) -> None:
        if not (partition_period_s > 0 and math.isfinite(partition_period_s)):
            raise StorageError(
                "partition period must be positive and finite, "
                f"got {partition_period_s}"
            )
        self._input = scribe.category(input_category)
        self._table = table
        self._period = partition_period_s
        self._cursor = 0
        self.rows_written = 0

    def partition_name_for(self, timestamp: float) -> str:
        """Dated partition name for a sample timestamp."""
        day = int(timestamp // self._period)
        return f"ds={day:05d}"

    def run_once(self) -> int:
        """Drain available labeled samples into partitions."""
        written = 0
        for record in self._input.read_from(self._cursor):
            self._cursor = record.lsn + 1
            timestamp, row = record.payload
            name = self.partition_name_for(timestamp)
            if name not in self._table:
                self._table.create_partition(name)
            self._table.partition(name).append(row)
            written += 1
        self.rows_written += written
        return written
