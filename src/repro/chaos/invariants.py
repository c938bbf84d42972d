"""Delivery invariants: what must hold after every chaos run.

Three classes of check, mirroring the paper's correctness claims:

* **delivery** — every tensor batch the (sampled) split set implies
  reaches a client exactly once; at-least-once where the injected
  faults legitimately cause replays, but never *lost*;
* **no stranding** — no batch is left in a dead or drained worker's
  buffer once the session reports done;
* **recovery determinism** — a master rebuilt from the same spec and
  files plans the identical split set, and a restored master agrees
  byte-for-byte with its checkpoint source.

Checkers return :class:`Violation` lists rather than raising, so a
runner can collect every broken invariant from one run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..dpp.master import DppMaster, MasterCheckpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dpp.service import DppSession
    from .report import DeliveryRecord


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the run."""

    invariant: str
    detail: str


def expected_deliveries(session: "DppSession") -> dict[tuple[int, int], int]:
    """The session's delivery obligation: (split_id, sequence) → rows.

    Derived from the master's (sampled) split set and the worker's
    deterministic rebatching: each stripe yields ceil(rows/batch_size)
    mini-batches, numbered sequentially within the split.  Stable
    across failovers and restarts because split sampling is.
    """
    batch_size = session.spec.batch_size
    expected: dict[tuple[int, int], int] = {}
    for split in session.master.primary.splits:
        footer = session.footers[split.file_name]
        sequence = 0
        for stripe_index in range(split.stripe_start, split.stripe_end):
            rows = footer.stripes[stripe_index].row_count
            if rows <= batch_size:
                expected[(split.split_id, sequence)] = rows
                sequence += 1
            else:
                for start in range(0, rows, batch_size):
                    expected[(split.split_id, sequence)] = (
                        min(start + batch_size, rows) - start
                    )
                    sequence += 1
    return expected


def check_delivery(
    expected: dict[tuple[int, int], int],
    records: Iterable["DeliveryRecord"],
    allow_replays: bool,
) -> list[Violation]:
    """Coverage, uniqueness, and row-count checks on delivered batches."""
    violations: list[Violation] = []
    delivered: Counter[tuple[int, int]] = Counter()
    for record in records:
        key = (record.split_id, record.sequence)
        delivered[key] += 1
        if key not in expected:
            violations.append(
                Violation(
                    "phantom-batch",
                    f"delivered batch {key} matches no planned split batch",
                )
            )
        elif record.n_rows != expected[key]:
            violations.append(
                Violation(
                    "row-count",
                    f"batch {key} delivered {record.n_rows} rows, "
                    f"expected {expected[key]}",
                )
            )
    missing = sorted(set(expected) - set(delivered))
    for key in missing:
        violations.append(
            Violation(
                "lost-batch",
                f"batch {key} ({expected[key]} rows) never reached a client",
            )
        )
    if not allow_replays:
        for key, count in sorted(delivered.items()):
            if count > 1:
                violations.append(
                    Violation(
                        "duplicate-delivery",
                        f"batch {key} delivered {count} times under "
                        "exactly-once expectations",
                    )
                )
    return violations


def check_no_stranded(session: "DppSession") -> list[Violation]:
    """No batch may survive in a dead or drained worker's buffer."""
    violations: list[Violation] = []
    for worker in session.workers:
        if not worker.alive and worker.buffer:
            violations.append(
                Violation(
                    "stranded-buffer",
                    f"dead worker {worker.worker_id} still buffers "
                    f"{len(worker.buffer)} batches",
                )
            )
        elif worker.draining and worker.buffer:
            violations.append(
                Violation(
                    "stranded-buffer",
                    f"drained worker {worker.worker_id} never served out "
                    f"{len(worker.buffer)} batches",
                )
            )
    return violations


def check_split_set_determinism(a: DppMaster, b: DppMaster) -> list[Violation]:
    """Two masters planned from the same spec must sample identically."""
    if a.split_ids == b.split_ids:
        return []
    only_a = sorted(a.split_ids - b.split_ids)
    only_b = sorted(b.split_ids - a.split_ids)
    return [
        Violation(
            "split-set-divergence",
            f"replanned master disagrees on the sampled split set "
            f"(only-first={only_a[:5]}, only-second={only_b[:5]})",
        )
    ]


def check_checkpoint_agreement(
    restored: DppMaster, source: MasterCheckpoint
) -> list[Violation]:
    """A restored master must agree byte-for-byte with its source."""
    violations: list[Violation] = []
    if not source.completed_split_ids <= restored.split_ids:
        violations.append(
            Violation(
                "dangling-checkpoint",
                "checkpoint references splits the restored master never planned: "
                f"{sorted(source.completed_split_ids - restored.split_ids)[:5]}",
            )
        )
    if restored.checkpoint() != source:
        violations.append(
            Violation(
                "restore-divergence",
                "restored master's checkpoint differs from its source "
                f"({restored.completed_splits} completed vs "
                f"{len(source.completed_split_ids)} checkpointed)",
            )
        )
    return violations
