"""Reference implementations the serving log and the join are tested against.

These are the bodies ``ServingSimulator._serve`` and
``StreamingJoiner.run_once`` shipped with before the feature log carried
the served row, kept verbatim apart from the record type: the serving
host reads the row's maps (building its batch's maps) and logs them in a
map-holding :class:`OracleFeatureLog`, and the join builds the labeled
row from the record's maps.  :class:`OracleServingSimulator` and
:class:`OracleStreamingJoiner` run them on the production classes' own
state (RNG, request IDs, daemon, cursors, stats), so a pipeline driven
through them and a twin driven through the production classes from the
same seeds must log, join and write the same things.
"""

from dataclasses import dataclass, field
from typing import Sequence

from repro.datagen import (
    EVENTS_CATEGORY,
    FEATURES_CATEGORY,
    EventLog,
    ServingSimulator,
    StreamingJoiner,
    label_from_event,
)
from repro.warehouse import Row


@dataclass(frozen=True)
class OracleFeatureLog:
    """Features generated for one recommendation request.

    The maps and the per-feature sequences in them are the ones the
    serving host built for the request: the log shares them with the
    producer and, after the join, with the labeled sample, so nobody
    downstream may mutate them.
    """

    request_id: int
    timestamp: float
    dense: dict[int, float] = field(default_factory=dict)
    sparse: dict[int, Sequence[int]] = field(default_factory=dict)
    scores: dict[int, Sequence[float]] = field(default_factory=dict)


class OracleServingSimulator(ServingSimulator):
    """A serving simulator that logs every row's maps."""

    def _serve(self, row, timestamp: float) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        # *row* was generated for this request and is dropped on return,
        # so the log takes its maps over instead of copying them.
        features = OracleFeatureLog(
            request_id=request_id,
            timestamp=timestamp,
            dense=row.dense,
            sparse=row.sparse,
            scores=row.scores,
        )
        self._daemon.log(FEATURES_CATEGORY, features)

        if self._rng.random() >= self._event_loss_rate:
            signal = next(iter(row.dense.values()), 0.0)
            p = min(max(self._engagement_rate + 0.1 * signal, 0.01), 0.99)
            event = EventLog(
                request_id=request_id,
                timestamp=timestamp + float(self._rng.exponential(30.0)),
                engaged=bool(self._rng.random() < p),
            )
            self._daemon.log(EVENTS_CATEGORY, event)
        return request_id


class OracleStreamingJoiner(StreamingJoiner):
    """A joiner that builds every labeled row from the logged maps."""

    def run_once(self, now: float) -> int:
        for record in self._features.read_from(self._feature_cursor):
            self._feature_cursor = record.lsn + 1
            feature_log: OracleFeatureLog = record.payload
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
            # The labeled sample is the logged features plus a label: it
            # takes the record's maps as they are.  Nothing may mutate
            # them (retention replaces a row's map when it reaps).
            row = Row(
                label=label_from_event(event),
                dense=feature_log.dense,
                sparse=feature_log.sparse,
                scores=feature_log.scores,
            )
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


def oracle_first_dense(row: Row, default: float) -> float:
    """The engagement signal as the serving host read it: through the maps."""
    return next(iter(row.dense.values()), default)
