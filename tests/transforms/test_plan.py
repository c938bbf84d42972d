"""The session plan and the write-once rule it rests on.

The plan (``TransformDag.plan``) must be invisible: the columns and the
``CostReport`` of ``execute_with_cost`` are those of the node-at-a-time
loop it replaced, on any DAG over the registered ops.  Sharing arrays
between columns must be safe: no op writes to an array it was given.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.transforms import (
    BoxCox,
    Bucketize,
    Cartesian,
    Clamp,
    ComputeScore,
    DenseColumn,
    Enumerate,
    FeatureBatch,
    FirstX,
    GetLocalHour,
    IdListTransform,
    Logit,
    MapId,
    NGram,
    Onehot,
    PositiveModulus,
    Sampling,
    SigridHash,
    SparseColumn,
    TransformDag,
    execute_with_cost,
    registered_ops,
)

from .oracles import execute_node_at_a_time

DENSE, SPARSE, SCORED = "dense", "sparse", "scored"
RAW = {1: DENSE, 2: DENSE, 3: DENSE, 10: SPARSE, 11: SPARSE, 20: SCORED}

# name -> (kinds of its inputs, kind of its output given those, factory).
# Few distinct parameter values, so that runs of equal dense ops — what
# the plan fuses — are common.
OPS = {
    "Logit": ([DENSE], DENSE, lambda draw, a: Logit(a, draw(st.sampled_from([1e-6, 1e-3])))),
    "Clamp": ([DENSE], DENSE, lambda draw, a: Clamp(a, -1.0, draw(st.sampled_from([0.5, 3.0])))),
    "BoxCox": ([DENSE], DENSE, lambda draw, a: BoxCox(a, draw(st.sampled_from([0.0, 0.5])))),
    "GetLocalHour": ([DENSE], DENSE, lambda draw, a: GetLocalHour(a, 5.5)),
    "Onehot": ([DENSE], SPARSE, lambda draw, a: Onehot(a, [-1.0, 0.0, 1.0])),
    "Bucketize": ([None], SPARSE, lambda draw, a: Bucketize(a, [-1.0, 0.5, 4.0])),
    "Sampling": ([], DENSE, lambda draw: Sampling(0.5, seed=draw(st.integers(0, 3)))),
    "SigridHash": ([SPARSE], None, lambda draw, a: SigridHash(a, 1_000, salt=draw(st.integers(0, 2)))),
    "FirstX": ([SPARSE], None, lambda draw, a: FirstX(a, draw(st.integers(0, 4)))),
    "PositiveModulus": ([SPARSE], None, lambda draw, a: PositiveModulus(a, 7)),
    "MapId": ([SPARSE], None, lambda draw, a: MapId(a, {1: 10, 3: -4, 5: 0}, default=-1)),
    "Enumerate": ([SPARSE], None, lambda draw, a: Enumerate(a)),
    "ComputeScore": ([SCORED], SCORED, lambda draw, a: ComputeScore(a, 2.0, -0.5)),
    "IdListTransform": ([SPARSE, SPARSE], SPARSE, lambda draw, a, b: IdListTransform(a, b)),
    "Cartesian": ([SPARSE, SPARSE], SPARSE, lambda draw, a, b: Cartesian(a, b, max_pairs=5)),
    "NGram": ([SPARSE, SPARSE], SPARSE, lambda draw, a, b: NGram([a, b], n=draw(st.integers(1, 3)))),
}


def test_every_registered_op_is_drawn():
    assert set(OPS) == set(registered_ops())


def accepts(wanted, kind) -> bool:
    """SCORED columns are sparse columns too; None takes anything."""
    return wanted is None or wanted == kind or (wanted == SPARSE and kind == SCORED)


@st.composite
def batches(draw, n_rows=None):
    n = draw(st.integers(0, 6)) if n_rows is None else n_rows
    batch = FeatureBatch(labels=np.zeros(n, dtype=np.float32))
    for fid, kind in RAW.items():
        if kind == DENSE:
            values = draw(st.lists(st.floats(-4, 4, width=32), min_size=n, max_size=n))
            presence = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            column = DenseColumn(
                np.array(values, dtype=np.float32), np.array(presence, dtype=bool)
            )
        else:
            lists = draw(
                st.lists(st.lists(st.integers(-3, 8), max_size=5), min_size=n, max_size=n)
            )
            weights = [[0.25 * v for v in ids] for ids in lists] if kind == SCORED else None
            column = SparseColumn.from_lists(lists, weights)
        batch.add_column(fid, column)
    return batch


@st.composite
def dags(draw, raw=RAW, first_id=100, min_nodes=0):
    """Up to 14 nodes, each reading raw features (*raw*: ID → kind) or
    earlier outputs; an op whose inputs nothing can feed is not drawn."""
    kinds = dict(raw)
    dag = TransformDag()
    for output_id in range(first_id, first_id + draw(st.integers(min_nodes, 14))):
        names = [
            name
            for name in sorted(OPS)
            if all(any(accepts(w, k) for k in kinds.values()) for w in OPS[name][0])
        ]
        # Logit several times over: runs (and chains) of it are what gets fused.
        boost = [name for name in ["Logit"] * 6 + ["Clamp"] * 2 if name in names]
        name = draw(st.sampled_from(names + boost))
        wanted, produces, factory = OPS[name]
        inputs = [
            draw(st.sampled_from([f for f, k in kinds.items() if accepts(w, k)]))
            for w in wanted
        ]
        dag.add(output_id, factory(draw, *inputs))
        if produces is not None:
            kinds[output_id] = produces
        elif name in ("SigridHash", "FirstX", "PositiveModulus", "MapId", "Enumerate"):
            kinds[output_id] = kinds[inputs[0]]  # weights ride along
    return dag


def snapshot(batch: FeatureBatch) -> dict:
    """Every array of every column as (dtype, bytes): NaNs and signed
    zeros compare as the bits they are."""
    state = {}
    for fid, column in batch.columns.items():
        for name in ("values", "presence", "offsets", "weights"):
            array = getattr(column, name, None)
            if array is not None:
                state[fid, name] = (array.dtype.str, array.shape, array.tobytes())
    return state


def copy_of(batch: FeatureBatch) -> FeatureBatch:
    twin = FeatureBatch(labels=batch.labels.copy())
    for fid, column in batch.columns.items():
        if isinstance(column, DenseColumn):
            twin.add_column(fid, DenseColumn(column.values.copy(), column.presence.copy()))
        else:
            weights = None if column.weights is None else column.weights.copy()
            twin.add_column(
                fid, SparseColumn(column.offsets.copy(), column.values.copy(), weights)
            )
    return twin


class TestPlanIsInvisible:
    @settings(deadline=None)
    @given(dag=dags(), batch=batches())
    def test_same_columns_and_same_cost_report(self, dag, batch):
        twin = copy_of(batch)
        with np.errstate(all="ignore"):
            planned = execute_with_cost(dag, batch)
            looped = execute_node_at_a_time(dag, twin)
        assert list(batch.columns) == list(twin.columns)
        assert snapshot(batch) == snapshot(twin)
        assert planned == looped

    def test_a_run_of_equal_dense_ops_is_one_step(self):
        dag = TransformDag()
        for i, fid in enumerate((1, 2, 3, 1)):
            dag.add(100 + i, Logit(fid))
        dag.add(104, Logit(2, eps=1e-3))  # other parameters: its own run
        dag.add(105, Logit(100))
        dag.add(106, Logit(105))  # reads 105: cannot share its step
        dag.add(107, FirstX(10, 2))
        dag.add(108, Clamp(3, -1.0, 1.0))
        steps = [[node.output_id for node in step.nodes] for step in dag.plan()]
        assert steps == [[100, 101, 102, 103], [104], [105], [106], [107], [108]]

    def test_plan_follows_the_dag(self):
        dag = TransformDag().add(100, Logit(1))
        assert len(dag.plan()) == 1
        dag.add(101, FirstX(10, 2))
        assert [len(step.nodes) for step in dag.plan()] == [1, 1]
        assert dag.plan() is dag.plan()  # memoised until the next add()

    def test_cost_sums_do_not_depend_on_order(self):
        """Every addend of a CostReport is ``constant * element count``.
        With integer-valued constants each is an integer-valued float64
        far below 2**53, so float addition is exact and any order of
        charging — node at a time or a fused run — gives the same bits."""
        for name, op in registered_ops().items():
            assert float(op.cost.cycles_per_element).is_integer(), name
            assert float(op.cost.mem_bytes_per_element).is_integer(), name
            # A stripe's worth of elements stays far inside the exact range.
            assert op.cost.mem_bytes_per_element * 10**9 < 2**53, name


def freeze(batch: FeatureBatch) -> None:
    batch.labels.setflags(write=False)
    for column in batch.columns.values():
        for name in ("values", "presence", "offsets", "weights"):
            array = getattr(column, name, None)
            if array is not None:
                array.setflags(write=False)


def full_check(column) -> None:
    """Re-run the public constructor's checks on an existing column."""
    if isinstance(column, SparseColumn):
        SparseColumn(column.offsets, column.values, column.weights)
    else:
        DenseColumn(column.values, column.presence)


class TestWriteOnce:
    """An array placed in a column is never written again, so ops may
    share their inputs' arrays and must not write to what they are given."""

    @settings(deadline=None)
    @given(dag=dags(), batch=batches())
    def test_ops_never_write_to_their_inputs(self, dag, batch):
        twin = copy_of(batch)
        freeze(batch)
        raw = snapshot(batch)
        with np.errstate(all="ignore"):
            for node in dag.compile():
                column = node.op.apply(batch)  # raises if it writes to an input
                batch.add_column(node.output_id, column)
                twin.add_column(node.output_id, node.op.apply(twin))
                full_check(column)
                freeze(batch)  # outputs are inputs from here on
        assert snapshot(batch) == snapshot(twin)
        assert {key: raw[key] for key in raw} == {
            key: value for key, value in snapshot(batch).items() if key in raw
        }

    @settings(deadline=None)
    @given(dag=dags(), batch=batches())
    def test_the_plan_runs_on_read_only_arrays(self, dag, batch):
        twin = copy_of(batch)
        freeze(batch)
        with np.errstate(all="ignore"):
            execute_with_cost(dag, batch)
            execute_node_at_a_time(dag, twin)
        assert snapshot(batch) == snapshot(twin)

    def test_row_structure_preserving_ops_share_not_copy(self):
        batch = FeatureBatch(labels=np.zeros(2, dtype=np.float32))
        scored = SparseColumn.from_lists([[1, 2], [3]], [[0.5, 1.0], [2.0]])
        dense = DenseColumn(np.array([0.2, 0.8]), np.array([True, False]))
        batch.add_column(20, scored)
        batch.add_column(1, dense)
        for op in (
            SigridHash(20, 100),
            PositiveModulus(20, 7),
            MapId(20, {1: 5}),
            Enumerate(20),
        ):
            result = op.apply(batch)
            assert result.offsets is scored.offsets, op.name
            assert result.weights is scored.weights, op.name
        rescored = ComputeScore(20, 2.0).apply(batch)
        assert rescored.offsets is scored.offsets
        assert rescored.values is scored.values
        assert Bucketize(20, [2.0]).apply(batch).offsets is scored.offsets
        for op in (Logit(1), Clamp(1, 0.0, 1.0), BoxCox(1), GetLocalHour(1)):
            assert op.apply(batch).presence is dense.presence, op.name


class TestBoxCoxShift:
    """Absent rows hold filler (0.0 from the stripe decoder); only present
    values may set the shift that makes the input positive."""

    def column(self, values, presence):
        batch = FeatureBatch(labels=np.zeros(len(values), dtype=np.float32))
        batch.add_column(1, DenseColumn(np.array(values), np.array(presence, dtype=bool)))
        return BoxCox(1, lmbda=0.0).apply(batch)

    def test_absent_rows_do_not_set_the_shift(self):
        alone = self.column([5.0, 7.0, 9.0], [True, True, True])
        assert alone.values.tolist() == pytest.approx([0.0, np.log(3.0), np.log(5.0)])
        with_absent = self.column([5.0, 7.0, 9.0, 0.0], [True, True, True, False])
        assert with_absent.values[:3].tolist() == alone.values.tolist()
        assert with_absent.values[3] == 0.0  # still filler, and no NaN
        assert with_absent.presence.tolist() == [True, True, True, False]

    def test_all_absent_and_zero_row_columns_come_back_as_filler(self):
        absent = self.column([0.0, 0.0], [False, False])
        assert absent.values.tolist() == [0.0, 0.0]
        assert absent.presence.tolist() == [False, False]
        assert len(self.column([], [])) == 0
