"""Fault schedules: what breaks, and when.

A chaos scenario is a session plus a :class:`FaultSchedule` — a list of
:class:`FaultEvent`\\ s pinned to pump rounds.  Schedules are either
scripted (regression scenarios that replay a known-bad sequence) or
seeded (:func:`seeded_schedule` draws a reproducible random mix, so CI
can sweep many seeds cheaply).

The fault menu covers the failure modes Section 3.2.1's control plane
claims to survive: worker crashes (stateless — requeue is recovery),
graceful drains (scale-down must serve out buffers), primary-master
failover (replication), full master restarts (checkpoint restore), and
degraded Tectonic bandwidth.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..common.errors import DppError


class FaultKind(enum.Enum):
    """One injectable failure mode."""

    WORKER_CRASH = "worker_crash"  # kill a live worker, buffer and all
    WORKER_CRASH_MID_SPLIT = "worker_crash_mid_split"  # die inside a split
    WORKER_DRAIN = "worker_drain"  # graceful scale-down by one
    SCALE_UP = "scale_up"  # autoscaler-style launch
    MASTER_FAILOVER = "master_failover"  # promote the standby replica
    MASTER_RESTART = "master_restart"  # full restart from checkpoint
    DEGRADE_STORAGE = "degrade_storage"  # throttle Tectonic bandwidth
    RESTORE_STORAGE = "restore_storage"  # undo the throttle


#: Faults after which replayed batches are legitimate: a crash can
#: reopen a split whose batches were partially served, and a restart
#: replays completions newer than the checkpoint.  Everything else must
#: stay exactly-once.
AT_LEAST_ONCE_KINDS = frozenset(
    {
        FaultKind.WORKER_CRASH,
        FaultKind.WORKER_CRASH_MID_SPLIT,
        FaultKind.MASTER_RESTART,
    }
)


#: Faults a fleet region takes, through the simulator's public chaos
#: hooks (:func:`~repro.chaos.runner.schedule_fleet_faults`, the fleet
#: scenario kind); every other kind acts on one DPP session.
FLEET_FAULT_KINDS = frozenset(
    {
        FaultKind.WORKER_CRASH,
        FaultKind.DEGRADE_STORAGE,
        FaultKind.RESTORE_STORAGE,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault, pinned to a pump round.

    ``magnitude`` is kind-specific: worker count for scale/drain
    events, the bandwidth fraction in (0, 1] for storage degradation,
    batches-into-the-split for mid-split crashes.
    """

    round_index: int
    kind: FaultKind
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise DppError("fault round cannot be negative")
        if self.kind is FaultKind.DEGRADE_STORAGE and not 0 < self.magnitude <= 1:
            raise DppError("storage degradation fraction must be in (0, 1]")

    def describe(self) -> str:
        """Human-readable one-liner for the report's fault log."""
        return f"round {self.round_index}: {self.kind.value} (x{self.magnitude:g})"


class FaultSchedule:
    """An ordered set of fault events a runner injects round by round."""

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        self._events = sorted(events, key=lambda e: e.round_index)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """All events, in round order."""
        return tuple(self._events)

    def due(self, round_index: int) -> list[FaultEvent]:
        """Events scheduled for exactly *round_index*."""
        return [e for e in self._events if e.round_index == round_index]

    def allows_replays(self) -> bool:
        """Whether the schedule contains any at-least-once fault."""
        return any(e.kind in AT_LEAST_ONCE_KINDS for e in self._events)


def seeded_schedule(
    seed: int,
    n_faults: int = 4,
    max_round: int = 10,
    kinds: tuple[FaultKind, ...] = (
        FaultKind.WORKER_CRASH,
        FaultKind.WORKER_CRASH_MID_SPLIT,
        FaultKind.WORKER_DRAIN,
        FaultKind.SCALE_UP,
        FaultKind.MASTER_FAILOVER,
        FaultKind.MASTER_RESTART,
    ),
) -> FaultSchedule:
    """Draw a reproducible random fault mix for seed-sweep testing.

    The same *seed* always produces the same schedule (a dedicated
    :class:`random.Random`, never process-global state).
    """
    if n_faults < 1:
        raise DppError("a seeded schedule needs at least one fault")
    if not kinds:
        raise DppError("a seeded schedule needs a non-empty fault menu")
    rng = random.Random(seed)
    events = [
        FaultEvent(round_index=rng.randrange(max_round + 1), kind=rng.choice(kinds))
        for _ in range(n_faults)
    ]
    return FaultSchedule(events)
