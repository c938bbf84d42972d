"""The model-serving framework's logging side.

Fresh training samples begin life at serving time: a service evaluates
a (user, item) pair, logs the generated features, and later logs the
observed outcome event (Section 3.1).  This module generates that raw
traffic synthetically, with engagement probability linked to features
so downstream models have real signal.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import ConfigError
from ..common.hashing import stable_hash
from ..warehouse.generator import SampleGenerator
from ..warehouse.schema import TableSchema
from .events import EventLog, FeatureLog
from .scribe import ScribeDaemon

FEATURES_CATEGORY = "features"
EVENTS_CATEGORY = "events"


def request_id_base(host: str) -> int:
    """The first request ID a serving host hands out.

    Request IDs must be globally unique across serving hosts or the
    downstream join silently mismatches; each host gets a disjoint
    2**32-wide range derived from its name.  The hash must be
    process-stable: a salted builtin ``hash()`` would give every rerun
    a different ID range and break serving-trace reproducibility.
    The serving plane (``repro.serving``) reuses this same base so its
    simulated trainer fetches share the ID space of logged traffic.
    """
    return (stable_hash(host) & 0xFFFF) << 32


# The ServingSimulator constructor parameter shadows the function name.
_host_request_id_base = request_id_base


class ServingSimulator:
    """Synthesizes serving-time feature and event logs.

    Reuses the warehouse sample generator for feature statistics; the
    outcome event is Bernoulli with a rate modulated by the first dense
    feature, giving labels genuine feature dependence.
    """

    def __init__(
        self,
        schema: TableSchema,
        generator: SampleGenerator,
        daemon: ScribeDaemon,
        engagement_rate: float = 0.3,
        event_loss_rate: float = 0.02,
        seed: int = 0,
        request_id_base: int | None = None,
    ) -> None:
        if not 0 <= engagement_rate <= 1:
            raise ConfigError(
                f"engagement_rate must be in [0, 1], got {engagement_rate}"
            )
        if not 0 <= event_loss_rate <= 1:
            raise ConfigError(
                f"event_loss_rate must be in [0, 1], got {event_loss_rate}"
            )
        self.schema = schema
        self._generator = generator
        self._daemon = daemon
        self._engagement_rate = engagement_rate
        self._event_loss_rate = event_loss_rate
        self._rng = np.random.default_rng(seed)
        # Unless given explicitly, derive a disjoint per-host ID range
        # (see request_id_base above).
        if request_id_base is None:
            request_id_base = _host_request_id_base(daemon.host)
        self._next_request_id = request_id_base

    def _serve(self, row, timestamp: float) -> int:
        """Handle one recommendation request; returns its request ID.

        Logs *row* as the request's feature record always; the outcome
        event is dropped with a small probability (clients navigate
        away, loggers fail), which is why ETL joins are lossy in
        production.

        The engagement signal is the row's first logged dense value,
        read by :meth:`~repro.warehouse.row.Row.first_dense`, so serving
        a view of a batch builds none of the batch's maps.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        # *row* was generated for this request and is dropped on return,
        # so the log takes it over as it is: a view stays a view, and
        # nothing here reads a map of its batch.
        self._daemon.log(FEATURES_CATEGORY, FeatureLog(request_id, timestamp, row))

        if self._rng.random() >= self._event_loss_rate:
            signal = row.first_dense(0.0)
            p = min(max(self._engagement_rate + 0.1 * signal, 0.01), 0.99)
            event = EventLog(
                request_id=request_id,
                timestamp=timestamp + float(self._rng.exponential(30.0)),
                engaged=bool(self._rng.random() < p),
            )
            self._daemon.log(EVENTS_CATEGORY, event)
        return request_id

    def serve_many(self, n: int, start_time: float = 0.0, rate_per_s: float = 100.0) -> None:
        """Serve *n* requests at a fixed rate, then flush the daemon.

        Feature rows are drawn from the generator in vectorized chunks
        — exactly *n* rows total, never a prefetch beyond what was
        requested, so other consumers sharing the generator are not
        starved of samples.  Each row is a view of its
        chunk's batch and is logged as one, so the round reaches the
        DWRF writer as the generator's columns unless somebody reads a
        map on the way.
        """
        if not (rate_per_s > 0 and math.isfinite(rate_per_s)):
            raise ConfigError(
                f"rate_per_s must be positive and finite, got {rate_per_s}"
            )
        for i, row in enumerate(self._generator.iter_rows(self.schema, n)):
            self._serve(row, start_time + i / rate_per_s)
        self._daemon.flush()
