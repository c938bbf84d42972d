"""Splits: self-contained work items over successive dataset rows.

The Master "breaks down the entire preprocessing workload ... into
independent and self-contained work items for the data plane called
splits that represent successive rows of the entire dataset"
(Section 3.2.1).  A split addresses a contiguous stripe range within
one partition's DWRF file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..common.errors import DppError
from ..dwrf.layout import FileFooter


class SplitState(enum.Enum):
    """Lifecycle of a split inside the master."""

    PENDING = "pending"
    ASSIGNED = "assigned"
    COMPLETED = "completed"


@dataclass(frozen=True)
class Split:
    """One work item: stripes [stripe_start, stripe_end) of a file."""

    split_id: int
    file_name: str
    stripe_start: int
    stripe_end: int
    row_count: int

    def __post_init__(self) -> None:
        if self.stripe_start < 0 or self.stripe_end <= self.stripe_start:
            raise DppError(
                f"invalid stripe range [{self.stripe_start}, {self.stripe_end})"
            )
        if self.row_count <= 0:
            raise DppError("split must cover at least one row")


def plan_splits(
    files: dict[str, FileFooter], split_stripes: int, first_id: int = 0
) -> list[Split]:
    """Partition the session's files into splits of *split_stripes* stripes.

    Files are walked in insertion order (chronological partitions) and
    stripes within a file in offset order, so split IDs respect dataset
    order — one epoch visits each sample exactly once (Section 5.1).
    """
    if split_stripes <= 0:
        raise DppError("split_stripes must be positive")
    splits: list[Split] = []
    next_id = first_id
    for file_name, footer in files.items():
        n_stripes = len(footer.stripes)
        for start in range(0, n_stripes, split_stripes):
            end = min(start + split_stripes, n_stripes)
            rows = sum(footer.stripes[i].row_count for i in range(start, end))
            splits.append(Split(next_id, file_name, start, end, rows))
            next_id += 1
    if not splits:
        raise DppError("session dataset contains no stripes")
    return splits
