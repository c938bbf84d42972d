"""Per-feature transform DAGs.

Section 7.2: "a single feature X may require a DAG of multiple
operations that apply Bucketize to feature A, apply FirstX to feature B,
compute the Ngram of the intermediate values, and apply SigridHash to
generate feature X."  A :class:`TransformDag` is exactly that: nodes
producing intermediate or output feature IDs, executed in topological
order over a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import TransformError
from .base import OpClass, Transform
from .batch import Column, DenseColumn, FeatureBatch


@dataclass(frozen=True)
class DagNode:
    """One op application producing a new feature column."""

    output_id: int
    op: Transform


CLASS_SLOTS = {op_class: slot for slot, op_class in enumerate(OpClass)}


@dataclass(frozen=True)
class PlanStep:
    """One call of a session plan: a node, or a run of consecutive nodes
    with equal ``fusion_key()`` (22-32 ``Logit`` nodes over 250 floats
    each, per batch) whose stacked inputs take one 2-D kernel call."""

    nodes: tuple[DagNode, ...]
    #: Per node, resolved once: cycles and DRAM bytes per element, class
    #: slot, and the input IDs that size it.
    charges: tuple[tuple[float, float, int, tuple[int, ...]], ...]

    @classmethod
    def of(cls, nodes: list[DagNode]) -> "PlanStep":
        def charge(op: Transform) -> tuple:
            return (
                op.cost.cycles_per_element,
                op.cost.mem_bytes_per_element,
                CLASS_SLOTS[op.op_class],
                op.input_ids,
            )

        return cls(tuple(nodes), tuple(charge(node.op) for node in nodes))

    def apply(self, batch: FeatureBatch) -> list[Column]:
        """The output column of each node, in order."""
        if len(self.nodes) == 1:
            return [self.nodes[0].op.apply(batch)]
        inputs = [batch.dense(node.op.input_ids[0]) for node in self.nodes]
        values = self.nodes[0].op.kernel(np.stack([col.values for col in inputs]))
        return [DenseColumn(row, col.presence) for row, col in zip(values, inputs)]


@dataclass
class TransformDag:
    """A set of op nodes over raw and intermediate feature columns."""

    nodes: list[DagNode] = field(default_factory=list)
    # compile()'s and plan()'s results, reused until add() changes the DAG.
    _order: tuple[DagNode, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _plan: tuple[PlanStep, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, output_id: int, op: Transform) -> "TransformDag":
        """Append a node; returns self for chaining."""
        if any(node.output_id == output_id for node in self.nodes):
            raise TransformError(f"duplicate output feature {output_id}")
        self.nodes.append(DagNode(output_id, op))
        self._order = self._plan = None
        return self

    def output_ids(self) -> list[int]:
        """Feature IDs this DAG produces."""
        return [node.output_id for node in self.nodes]

    def required_raw_inputs(self) -> set[int]:
        """Raw feature IDs the DAG consumes (inputs not produced by nodes)."""
        produced = set(self.output_ids())
        required: set[int] = set()
        for node in self.nodes:
            required |= set(node.op.input_ids) - produced
        return required

    def compile(self) -> tuple[DagNode, ...]:
        """Topologically order the nodes; raises on cycles.

        Node inputs may be raw features (assumed present in the batch)
        or other nodes' outputs.
        """
        if self._order is None:
            self._order = tuple(self._topological_order())
        return self._order

    def _topological_order(self) -> list[DagNode]:
        produced = {node.output_id: node for node in self.nodes}
        ordered: list[DagNode] = []
        state: dict[int, int] = {}  # 0 = unvisited, 1 = visiting, 2 = done

        def visit(node: DagNode) -> None:
            mark = state.get(node.output_id, 0)
            if mark == 2:
                return
            if mark == 1:
                raise TransformError(
                    f"cycle through derived feature {node.output_id}"
                )
            state[node.output_id] = 1
            for input_id in node.op.input_ids:
                dependency = produced.get(input_id)
                if dependency is not None:
                    visit(dependency)
            state[node.output_id] = 2
            ordered.append(node)

        for node in self.nodes:
            visit(node)
        return ordered

    def plan(self) -> tuple[PlanStep, ...]:
        """The compiled order cut into steps: what executing a batch would
        otherwise rediscover, worked out once per session."""
        if self._plan is None:
            runs: list[list[DagNode]] = []
            for node in self.compile():
                key = node.op.fusion_key()
                run = runs[-1] if runs else []
                if (
                    key is not None
                    and run
                    and run[0].op.fusion_key() == key
                    and all(node.op.input_ids[0] != prior.output_id for prior in run)
                ):
                    run.append(node)
                else:
                    runs.append([node])
            self._plan = tuple(PlanStep.of(run) for run in runs)
        return self._plan
