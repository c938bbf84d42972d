"""Raw serving-time records: feature logs and event logs.

Section 3.1: "features and events are logged at serving time to avoid
data leakage between model serving and training."  A feature log holds
the inputs a model saw for one (user, item) evaluation; an event log
holds the observed outcome, joined later by ETL on the request ID.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..warehouse.row import Row


@dataclass(frozen=True)
class FeatureLog:
    """Features generated for one recommendation request.

    ``sample`` is the row the serving host served for the request —
    while it is a view, the generator's batch row, whose maps nobody
    has built (see :mod:`repro.warehouse.row`).  The join relabels it
    into the labeled sample, so the log and the sample share one
    content and nobody downstream may mutate a map of either.
    ``dense``/``sparse``/``scores`` read the sample's maps; the first
    read builds its batch's maps.
    """

    request_id: int
    timestamp: float
    sample: Row

    @property
    def dense(self) -> dict[int, float]:
        return self.sample.dense

    @property
    def sparse(self) -> dict[int, list[int]]:
        return self.sample.sparse

    @property
    def scores(self) -> dict[int, list[float]]:
        return self.sample.scores


@dataclass(frozen=True)
class EventLog:
    """The monitored outcome of one recommendation."""

    request_id: int
    timestamp: float
    engaged: bool  # did the user interact with the recommendation?


def label_from_event(event: EventLog) -> float:
    """Map an outcome event to a training label."""
    return 1.0 if event.engaged else 0.0
