"""Raw serving-time records: feature logs and event logs.

Section 3.1: "features and events are logged at serving time to avoid
data leakage between model serving and training."  A feature log holds
the inputs a model saw for one (user, item) evaluation; an event log
holds the observed outcome, joined later by ETL on the request ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class FeatureLog:
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


@dataclass(frozen=True)
class EventLog:
    """The monitored outcome of one recommendation."""

    request_id: int
    timestamp: float
    engaged: bool  # did the user interact with the recommendation?


def label_from_event(event: EventLog) -> float:
    """Map an outcome event to a training label."""
    return 1.0 if event.engaged else 0.0
