"""Chaos-run reports: what was injected, what was delivered, what broke."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..common.serialization import (
    ReportBase,
    record_from_row,
    record_row,
    record_rows,
    rows_of,
)
from .invariants import Violation


@dataclass(frozen=True)
class DeliveryRecord:
    """One tensor batch observed arriving at a client."""

    round_index: int
    client_id: str
    split_id: int
    sequence: int
    n_rows: int


@dataclass
class ChaosReport(ReportBase):
    """Outcome of one chaos scenario run."""

    report_kind = "chaos"

    scenario: str
    rounds: int
    allow_replays: bool
    faults_injected: list[str] = field(default_factory=list)
    records: list[DeliveryRecord] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    expected_batches: int = 0

    @property
    def ok(self) -> bool:
        """Whether every delivery invariant held."""
        return not self.violations

    @property
    def delivered_batches(self) -> int:
        """Batches that reached clients, replays included."""
        return len(self.records)

    @property
    def replayed_batches(self) -> int:
        """Deliveries beyond the first per batch identity."""
        counts = Counter((r.split_id, r.sequence) for r in self.records)
        return sum(count - 1 for count in counts.values())

    @property
    def rows_delivered(self) -> int:
        """Total rows across all deliveries."""
        return sum(r.n_rows for r in self.records)

    # -- shared telemetry surface ----------------------------------------------

    def payload(self) -> dict:
        return record_row(self, records=record_rows, violations=record_rows)

    @classmethod
    def from_payload(cls, payload: dict) -> "ChaosReport":
        return record_from_row(
            cls,
            payload,
            "chaos report",
            records=rows_of(DeliveryRecord, "chaos delivery record"),
            violations=rows_of(Violation, "chaos violation"),
        )

    def metrics(self) -> dict[str, float]:
        return {
            "chaos.rounds": float(self.rounds),
            "chaos.expected_batches": float(self.expected_batches),
            "chaos.delivered_batches": float(self.delivered_batches),
            "chaos.replayed_batches": float(self.replayed_batches),
            "chaos.rows_delivered": float(self.rows_delivered),
            "chaos.faults_injected": float(len(self.faults_injected)),
            "chaos.violations": float(len(self.violations)),
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        mode = "at-least-once" if self.allow_replays else "exactly-once"
        lines = [
            f"chaos scenario {self.scenario!r}: "
            f"{'PASS' if self.ok else 'FAIL'} ({mode})",
            f"  rounds={self.rounds} "
            f"expected={self.expected_batches} "
            f"delivered={self.delivered_batches} "
            f"replayed={self.replayed_batches}",
        ]
        if self.faults_injected:
            lines.append("  faults:")
            lines.extend(f"    {fault}" for fault in self.faults_injected)
        if self.violations:
            lines.append("  violations:")
            lines.extend(f"    {violation}" for violation in self.violations)
        return "\n".join(lines)
