"""Transform DAG compilation, execution, and cost accounting."""

import gc

import numpy as np
import pytest

from repro.common.errors import TransformError
from repro.transforms import (
    Bucketize,
    DenseColumn,
    FeatureBatch,
    FirstX,
    Logit,
    NGram,
    OpClass,
    SigridHash,
    SparseColumn,
    TransformDag,
    execute_with_cost,
)

D, S = 1, 2


def make_batch(n=4):
    batch = FeatureBatch(labels=np.zeros(n, dtype=np.float32))
    batch.add_column(D, DenseColumn(np.linspace(0.1, 0.9, n), np.ones(n, dtype=bool)))
    batch.add_column(S, SparseColumn.from_lists([[i, i + 1, i + 2] for i in range(n)]))
    return batch


class TestDagStructure:
    def test_duplicate_output_rejected(self):
        dag = TransformDag().add(100, Logit(D))
        with pytest.raises(TransformError):
            dag.add(100, Logit(D))

    def test_required_raw_inputs(self):
        dag = TransformDag()
        dag.add(100, FirstX(S, 2))
        dag.add(101, SigridHash(100, 50))
        assert dag.required_raw_inputs() == {S}

    def test_compile_orders_dependencies(self):
        dag = TransformDag()
        # Added out of dependency order on purpose.
        dag.add(101, SigridHash(100, 50))
        dag.add(100, FirstX(S, 2))
        order = [node.output_id for node in dag.compile()]
        assert order.index(100) < order.index(101)

    def test_cycle_detected(self):
        dag = TransformDag()
        dag.add(100, SigridHash(101, 50))
        dag.add(101, SigridHash(100, 50))
        with pytest.raises(TransformError, match="cycle through derived feature 100"):
            dag.compile()

    def test_compile_leaves_no_garbage(self):
        # Runs drop their session's DAG when they end; ordering it must
        # not leave a cycle that only the collector frees.
        gc.collect()
        gc.disable()
        try:
            dag = TransformDag()
            dag.add(101, SigridHash(100, 50))
            dag.add(100, FirstX(S, 2))
            dag.compile()
            del dag
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_chain_example_from_paper(self):
        """Section 7.2's feature-X DAG: Bucketize(A), FirstX(B),
        NGram of the intermediates, SigridHash to produce X."""
        dag = TransformDag()
        dag.add(100, Bucketize(D, borders=[0.3, 0.6]))
        dag.add(101, FirstX(S, 2))
        dag.add(102, NGram([100, 101], n=2))
        dag.add(103, SigridHash(102, table_size=1_000))
        batch = make_batch()
        execute_with_cost(dag, batch)
        out = batch.sparse(103)
        assert len(out) == batch.n_rows
        assert np.all((out.values >= 0) & (out.values < 1_000))


class TestExecution:
    def test_outputs_attached(self):
        dag = TransformDag().add(100, Logit(D))
        batch = make_batch()
        execute_with_cost(dag, batch)
        assert 100 in batch.columns

    def test_execution_deterministic(self):
        dag = TransformDag()
        dag.add(100, FirstX(S, 2))
        dag.add(101, SigridHash(100, 1000))
        a, b = make_batch(), make_batch()
        execute_with_cost(dag, a)
        execute_with_cost(dag, b)
        assert np.array_equal(a.sparse(101).values, b.sparse(101).values)

    def test_empty_dag_is_noop(self):
        batch = make_batch()
        before = set(batch.columns)
        execute_with_cost(TransformDag(), batch)
        assert set(batch.columns) == before


class TestCostAccounting:
    def test_costs_charged_per_element(self):
        dag = TransformDag().add(100, FirstX(S, 2))
        batch = make_batch(n=4)
        report = execute_with_cost(dag, batch)
        elements = len(batch.sparse(S).values)
        assert report.cycles == pytest.approx(FirstX.cost.cycles_per_element * elements)
        assert report.mem_bytes == pytest.approx(
            FirstX.cost.mem_bytes_per_element * elements
        )

    def test_class_shares_sum_to_one(self):
        dag = TransformDag()
        dag.add(100, Logit(D))
        dag.add(101, FirstX(S, 2))
        dag.add(102, NGram([S], n=2))
        report = execute_with_cost(dag, make_batch())
        shares = report.class_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[OpClass.FEATURE_GENERATION] > shares[OpClass.DENSE_NORMALIZATION]

    def test_merge_accumulates(self):
        dag = TransformDag().add(100, Logit(D))
        a = execute_with_cost(dag, make_batch())
        cycles = a.cycles
        b = execute_with_cost(TransformDag().add(200, FirstX(S, 1)), make_batch())
        a.merge(b)
        assert a.cycles == pytest.approx(cycles + b.cycles)

    def test_paper_op_class_split_shape(self):
        """Section 6.4: feature generation dominates transform cycles
        (≈75%), then sparse normalization (≈20%), then dense (≈5%)."""
        dag = TransformDag()
        # A representative production mix: normalization for every
        # feature plus a couple of generation chains.
        dag.add(100, Logit(D))
        dag.add(101, FirstX(S, 8))
        dag.add(102, SigridHash(101, 10_000))
        dag.add(103, NGram([S, S], n=2))
        dag.add(104, SigridHash(103, 10_000))
        report = execute_with_cost(dag, make_batch(n=32))
        shares = report.class_shares()
        assert shares[OpClass.FEATURE_GENERATION] > 0.4
        assert shares[OpClass.DENSE_NORMALIZATION] < 0.1
