"""Client-to-worker routing: bounded connections, balanced load."""

from repro.dpp import DppClient

from .conftest import make_spec
from repro.dpp.service import DppSession


def fed_session(published, n_workers):
    filesystem, schema, footers, _ = published
    spec = make_spec(schema, batch_size=16)
    session = DppSession(spec, filesystem, schema, footers, n_workers=n_workers)
    # Interleave split processing so every worker produces batches.
    progressed = True
    while progressed:
        progressed = False
        for worker in session.workers:
            progressed |= worker.process_one_split()
    return session


class TestConnectionScaling:
    def test_connection_count_independent_of_fleet_size(self, published):
        """The paper's point: partitioned round-robin 'caps the number
        of connections that Clients and Workers need to maintain'."""
        session = fed_session(published, n_workers=8)
        for cap in (1, 2, 4):
            client = DppClient("c", session.workers, max_connections=cap)
            assert len(client._partition) == cap

    def test_many_clients_touch_all_workers(self, published):
        """With enough clients, every worker serves someone — no
        stranded buffers."""
        session = fed_session(published, n_workers=6)
        clients = [
            DppClient(f"client-{i}", session.workers, max_connections=2)
            for i in range(12)
        ]
        covered = set()
        for client in clients:
            covered |= {worker.worker_id for worker in client._partition}
        assert covered == {worker.worker_id for worker in session.workers}

    def test_aggregate_drain_with_partitioned_clients(self, published):
        session = fed_session(published, n_workers=6)
        produced = sum(w.stats.batches_produced for w in session.workers)
        clients = [
            DppClient(f"client-{i}", session.workers, max_connections=3)
            for i in range(6)
        ]
        drained = 0
        # Clients poll round-robin until the whole fleet is dry.
        progress = True
        while progress:
            progress = False
            for client in clients:
                if client.get_batch() is not None:
                    drained += 1
                    progress = True
        assert drained == produced

    def test_served_load_roughly_balanced(self, published):
        session = fed_session(published, n_workers=4)
        clients = [
            DppClient(f"client-{i}", session.workers, max_connections=2)
            for i in range(8)
        ]
        progress = True
        while progress:
            progress = False
            for client in clients:
                if client.get_batch() is not None:
                    progress = True
        served = [worker.stats.batches_served for worker in session.workers]
        assert min(served) > 0
