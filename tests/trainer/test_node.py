"""The executable training node consuming a DPP session."""

import pytest

from repro.dpp import DppClient, DppSession
from repro.dwrf import EncodingOptions
from repro.tectonic import TectonicFilesystem
from repro.trainer import TrainingNode
from repro.transforms import FirstX, SigridHash, TransformDag
from repro.warehouse import DatasetProfile, SampleGenerator, Table, publish_table
from repro.workloads import V100_TRAINER
from repro.dpp.spec import SessionSpec


@pytest.fixture
def fed_session():
    profile = DatasetProfile(n_dense=4, n_sparse=3, avg_coverage=0.7,
                             avg_sparse_length=4.0)
    generator = SampleGenerator(profile, seed=21)
    schema = generator.build_schema("train_table")
    table = Table(schema)
    generator.populate_table(table, ["p0"], 200)
    filesystem = TectonicFilesystem(n_nodes=6)
    footers = publish_table(filesystem, table, EncodingOptions(stripe_rows=50))
    sparse_id = [s.feature_id for s in schema if s.name.startswith("sparse_")][0]
    dag = TransformDag()
    dag.add(800, FirstX(sparse_id, 2))
    dag.add(801, SigridHash(800, 100))
    spec = SessionSpec(
        table_name="train_table",
        partitions=("p0",),
        projection=frozenset({sparse_id}),
        dag=dag,
        output_ids=(801,),
        batch_size=25,
    )
    session = DppSession(spec, filesystem, schema, footers, n_workers=2)
    for worker in session.workers:
        while worker.process_one_split():
            pass
    return session, table


class RecordingClient:
    """A client that keeps every batch it hands the node."""

    def __init__(self, client):
        self.client = client
        self.batches = []

    def get_batch(self):
        batch = self.client.get_batch()
        if batch is not None:
            self.batches.append(batch)
        return batch


class TestTrainingNode:
    def test_consumes_all_batches(self, fed_session):
        session, table = fed_session
        client = DppClient("trainer-0", session.workers, max_connections=2)
        node = TrainingNode(V100_TRAINER, client)
        progress = node.train_until_exhausted()
        assert progress.samples == table.total_rows()
        assert progress.steps == 8  # 200 rows / 25 batch
        assert progress.stalled_polls == 1  # the final dry poll

    def test_bytes_ingested_tracked(self, fed_session):
        session, _ = fed_session
        client = RecordingClient(DppClient("trainer-0", session.workers))
        progress = TrainingNode(V100_TRAINER, client).train_until_exhausted()
        assert len(client.batches) == progress.steps == 8
        assert progress.bytes_ingested == sum(
            batch.wire_bytes() for batch in client.batches
        )
        assert progress.bytes_ingested > 0
