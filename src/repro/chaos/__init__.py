"""Chaos: failure-injection scenarios and delivery-invariant checking.

The scenario plane for the recovery claims of Section 3.2.1: drive
full DPP sessions (and fleet-hosted sessions) through scripted or
seeded fault schedules — worker crashes mid-split, graceful drains
under load, master failovers, checkpoint restores across simulated
restarts, degraded Tectonic bandwidth — then check that every sampled
row reached a client exactly once (at-least-once where crashes
legitimately replay), that no batch died stranded in a worker buffer,
and that restored masters agree byte-for-byte with their checkpoints.
"""

from .faults import (
    AT_LEAST_ONCE_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    seeded_schedule,
)
from .invariants import (
    Violation,
    check_checkpoint_agreement,
    check_delivery,
    check_no_stranded,
    check_split_set_determinism,
    expected_deliveries,
)
from .report import ChaosReport, DeliveryRecord
from .runner import ChaosRunner, schedule_fleet_faults

__all__ = [
    "AT_LEAST_ONCE_KINDS",
    "ChaosReport",
    "ChaosRunner",
    "DeliveryRecord",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "Violation",
    "check_checkpoint_agreement",
    "check_delivery",
    "check_no_stranded",
    "check_split_set_determinism",
    "expected_deliveries",
    "schedule_fleet_faults",
    "seeded_schedule",
]
