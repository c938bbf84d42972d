"""Cost accounting for transform execution.

The paper characterizes preprocessing by where CPU cycles and memory
bandwidth go (Figure 9, Section 6.3/6.4).  Python wall-clock is not a
faithful proxy for optimized C++ kernels, so we charge costs
analytically: every op application charges
``elements × cycles_per_element`` CPU cycles and
``elements × mem_bytes_per_element`` DRAM traffic, using the per-op
constants declared in each Transform class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import TransformError
from ..common.serialization import (
    ReportBase,
    record_from_row,
    record_row,
    revive_float,
)
from .base import OpClass
from .batch import FeatureBatch
from .dag import CLASS_SLOTS, TransformDag


@dataclass
class CostReport(ReportBase):
    """Accumulated work for one or more op applications."""

    report_kind = "cost"

    cycles: float = 0.0
    mem_bytes: float = 0.0
    cycles_by_class: dict[OpClass, float] = field(
        default_factory=lambda: {cls: 0.0 for cls in OpClass}
    )
    elements: int = 0

    def merge(self, other: "ReportBase") -> "CostReport":
        """Accumulate another report into this one (returns self)."""
        if not isinstance(other, CostReport):
            raise TransformError("can only merge CostReport into CostReport")
        self.cycles += other.cycles
        self.mem_bytes += other.mem_bytes
        self.elements += other.elements
        for cls, cycles in other.cycles_by_class.items():
            self.cycles_by_class[cls] += cycles
        return self

    def copy(self) -> "CostReport":
        """An independent report with the same values."""
        return CostReport(
            self.cycles, self.mem_bytes, dict(self.cycles_by_class), self.elements
        )

    # -- shared telemetry surface ----------------------------------------------

    def payload(self) -> dict:
        return record_row(
            self,
            cycles_by_class=lambda by_class: {
                op_class.value: cycles for op_class, cycles in by_class.items()
            },
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "CostReport":
        return record_from_row(
            cls,
            payload,
            "cost report",
            cycles_by_class=lambda row: {
                **dict.fromkeys(OpClass, 0.0),
                **{OpClass(name): revive_float(cycles) for name, cycles in row.items()},
            },
        )

    def class_shares(self) -> dict[OpClass, float]:
        """Fraction of transform cycles per op class (Section 6.4)."""
        total = sum(self.cycles_by_class.values())
        if total == 0:
            return {cls: 0.0 for cls in OpClass}
        return {cls: cycles / total for cls, cycles in self.cycles_by_class.items()}


def execute_with_cost(dag: TransformDag, batch: FeatureBatch) -> CostReport:
    """Execute *dag* on *batch* while charging the cost model."""
    columns = batch.columns
    n_rows = batch.n_rows
    # One charge per node, on locals, in node order: the same additions
    # in the same order as a report charged node at a time.
    cycles = mem_bytes = 0.0
    total_elements = 0
    cycles_by_slot = [0.0] * len(CLASS_SLOTS)
    for step in dag.plan():
        outputs = step.apply(batch)
        for node, charge, column in zip(step.nodes, step.charges, outputs):
            cycles_per_element, mem_bytes_per_element, slot, input_ids = charge
            # The unit the cost model charges by: input values, at least
            # one per row (an op with no inputs, such as Sampling, is
            # charged per row).
            elements = 0
            for fid in input_ids:
                elements += len(columns[fid].values)
            if elements < n_rows:
                elements = n_rows
            if len(column) != n_rows:
                raise TransformError(
                    f"column of {len(column)} rows in a batch of {n_rows}"
                )
            columns[node.output_id] = column
            node_cycles = cycles_per_element * elements
            cycles += node_cycles
            mem_bytes += mem_bytes_per_element * elements
            cycles_by_slot[slot] += node_cycles
            total_elements += elements
    by_class = dict(zip(CLASS_SLOTS, cycles_by_slot))
    return CostReport(cycles, mem_bytes, by_class, total_elements)
