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

from ..common.errors import TransformError
from .base import Transform
from .batch import FeatureBatch


@dataclass(frozen=True)
class DagNode:
    """One op application producing a new feature column."""

    output_id: int
    op: Transform


@dataclass
class TransformDag:
    """A set of op nodes over raw and intermediate feature columns."""

    nodes: list[DagNode] = field(default_factory=list)
    # compile()'s result, reused by every batch until add() changes the DAG.
    _order: tuple[DagNode, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, output_id: int, op: Transform) -> "TransformDag":
        """Append a node; returns self for chaining."""
        if any(node.output_id == output_id for node in self.nodes):
            raise TransformError(f"duplicate output feature {output_id}")
        self.nodes.append(DagNode(output_id, op))
        self._order = None
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

    def execute(self, batch: FeatureBatch) -> FeatureBatch:
        """Run every node in dependency order, attaching outputs to *batch*."""
        for node in self.compile():
            batch.add_column(node.output_id, node.op.apply(batch))
        return batch

    def __len__(self) -> int:
        return len(self.nodes)
