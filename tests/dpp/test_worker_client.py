"""DPP workers (extract/transform/load) and trainer-side clients."""

import numpy as np
import pytest

from repro.common.errors import DppError, WorkerFailure
from repro.dpp import DppClient, DppSession, WorkerConfig
from repro.dpp.tensors import TensorBatch
from repro.transforms import DenseColumn, FeatureBatch, SparseColumn

from .conftest import make_spec


def make_session(published, n_workers=2, n_clients=1, worker_config=None, **spec_overrides):
    filesystem, schema, footers, _ = published
    spec = make_spec(schema, **spec_overrides)
    return DppSession(
        spec, filesystem, schema, footers,
        n_workers=n_workers, n_clients=n_clients, worker_config=worker_config,
    )


class TestWorkerProcessing:
    def test_worker_processes_splits_and_buffers(self, published):
        session = make_session(published)
        worker = session.workers[0]
        assert worker.process_one_split() is True
        assert worker.buffered_batches > 0
        assert worker.stats.rows_processed > 0
        assert worker.stats.storage_rx_bytes > 0

    def test_flatmap_and_row_paths_agree(self, published):
        flat = make_session(
            published, worker_config=WorkerConfig(in_memory_flatmap=True)
        )
        rowpath = make_session(
            published, worker_config=WorkerConfig(in_memory_flatmap=False)
        )
        flat_report = flat.pump()
        row_report = rowpath.pump()
        assert flat_report.rows_processed == row_report.rows_processed
        assert flat_report.batches_delivered == row_report.batches_delivered
        # Row path pays real conversion cycles the flatmap path avoids.
        flat_cycles = sum(w.stats.usage.cpu_cycles for w in flat.workers)
        row_cycles = sum(w.stats.usage.cpu_cycles for w in rowpath.workers)
        assert row_cycles > flat_cycles

    def test_tensor_batches_contain_output_features(self, published):
        session = make_session(published)
        worker = session.workers[0]
        worker.process_one_split()
        batch = worker.serve_batch()
        output_ids = set(session.spec.effective_output_ids())
        tensor_ids = (
            set(batch.dense) | set(batch.sparse_values)
        )
        assert tensor_ids == output_ids

    def test_batch_size_respected(self, published):
        session = make_session(published, batch_size=32)
        worker = session.workers[0]
        worker.process_one_split()
        while worker.buffer:
            assert worker.serve_batch().n_rows <= 32

    def test_rebatched_pieces_are_the_stripes_rows(self, published):
        """Pieces are views of the stripe batch whose rebased offsets skip
        the constructor's scan; they must pass it all the same, and be
        the stripe's rows."""
        whole = make_session(published, n_workers=1, batch_size=64)
        cut = make_session(published, n_workers=1, batch_size=24)  # 24+24+16
        split = whole.master.request_split(whole.workers[0].worker_id)
        assert split == cut.master.request_split(cut.workers[0].worker_id)
        (stripe,) = whole.workers[0].extract_batches(split)
        pieces = list(cut.workers[0].extract_batches(split))
        assert [piece.n_rows for piece in pieces] == [24, 24, 16]
        row = 0
        for piece in pieces:
            stop = row + piece.n_rows
            assert np.array_equal(piece.labels, stripe.labels[row:stop])
            for fid, column in piece.columns.items():
                source = stripe.columns[fid]
                if isinstance(column, SparseColumn):
                    SparseColumn(column.offsets, column.values, column.weights)
                    assert column.to_lists() == source.to_lists()[row:stop]
                    assert (column.weights is None) == (source.weights is None)
                    if column.weights is not None:
                        first, last = source.offsets[row], source.offsets[stop]
                        assert np.array_equal(column.weights, source.weights[first:last])
                else:
                    DenseColumn(column.values, column.presence)
                    assert np.array_equal(column.values, source.values[row:stop])
                    assert np.array_equal(column.presence, source.presence[row:stop])
            row = stop
        assert row == stripe.n_rows

    def test_dead_worker_raises(self, published):
        session = make_session(published)
        worker = session.workers[0]
        worker.fail()
        with pytest.raises(WorkerFailure):
            worker.process_one_split()
        with pytest.raises(WorkerFailure):
            worker.serve_batch()

    def test_backpressure_stops_split_pulls(self, published):
        session = make_session(
            published, worker_config=WorkerConfig(buffer_batches=1)
        )
        worker = session.workers[0]
        worker.process_one_split()
        assert not worker.wants_work
        worker.serve_batch()
        while worker.buffer:
            worker.serve_batch()
        assert worker.wants_work


class TestTensorBatch:
    def test_from_feature_batch(self):
        batch = FeatureBatch(labels=np.array([1.0, 0.0], dtype=np.float32))
        batch.add_column(1, DenseColumn(np.array([0.5, 0.25]), np.array([True, False])))
        batch.add_column(2, SparseColumn.from_lists([[3, 4], [5]], [[0.1, 0.2], [0.3]]))
        tensors = TensorBatch.from_feature_batch(batch)
        assert tensors.n_rows == 2
        assert tensors.dense[1].tolist() == pytest.approx([0.5, 0.0])  # absent → 0
        assert tensors.sparse_values[2].tolist() == [3, 4, 5]
        assert 2 in tensors.sparse_weights

    def test_output_selection(self):
        batch = FeatureBatch(labels=np.zeros(1, dtype=np.float32))
        batch.add_column(1, DenseColumn(np.zeros(1), np.ones(1, dtype=bool)))
        batch.add_column(2, SparseColumn.from_lists([[1]]))
        tensors = TensorBatch.from_feature_batch(batch, output_ids=[2])
        assert not tensors.dense
        assert 2 in tensors.sparse_values

    def test_wire_bytes_exceed_resident(self):
        batch = FeatureBatch(labels=np.zeros(4, dtype=np.float32))
        batch.add_column(2, SparseColumn.from_lists([[1]] * 4))
        tensors = TensorBatch.from_feature_batch(batch)
        assert tensors.wire_bytes() > tensors.nbytes()


class TestClient:
    def test_round_robin_over_partition(self, published):
        session = make_session(published, n_workers=3)
        for worker in session.workers:
            while worker.process_one_split():
                pass
        client = DppClient("c", session.workers, max_connections=3)
        seen_batches = 0
        while client.get_batch() is not None:
            seen_batches += 1
        total_produced = sum(w.stats.batches_produced for w in session.workers)
        assert seen_batches == total_produced
        assert client.stats.batches_received == seen_batches

    def test_connection_cap(self, published):
        session = make_session(published, n_workers=3)
        client = DppClient("c", session.workers, max_connections=2)
        assert client.connections == 2

    def test_fewer_workers_than_cap(self, published):
        session = make_session(published, n_workers=2)
        client = DppClient("c", session.workers, max_connections=8)
        assert client.connections == 2

    def test_no_live_workers_rejected(self, published):
        session = make_session(published)
        for worker in session.workers:
            worker.fail()
        with pytest.raises(DppError):
            DppClient("c", session.workers)

    def test_client_survives_worker_death(self, published):
        session = make_session(published, n_workers=2)
        for worker in session.workers:
            worker.process_one_split()
        client = DppClient("c", session.workers, max_connections=2)
        session.workers[0].fail()
        # Client refreshes routing and still drains the live worker.
        batches = 0
        while client.get_batch() is not None:
            batches += 1
        assert batches > 0

    def test_empty_poll_counted(self, published):
        session = make_session(published)
        client = DppClient("c", session.workers)
        assert client.get_batch() is None
        assert client.stats.empty_polls == 1

    def test_invalid_connection_cap(self, published):
        session = make_session(published)
        with pytest.raises(DppError):
            DppClient("c", session.workers, max_connections=0)
