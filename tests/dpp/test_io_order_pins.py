"""Cross-commit pins for the *order* of modelled I/O.

``golden/dpp_pins.json`` pins totals (``io_count``, ``bytes_read``,
``useful_bytes``); a read path that issued the same reads in another
order, or shifted the filesystem's replica round-robin by one, would
pass it and the benchmark's digests.  These pins hold the sequence: a
digest over each worker's ``io_trace.records`` in issue order, its seek
count, and what every storage node served.  They were recorded at the
commit before the read path was restructured (running this file as a
script against that commit's ``src/`` prints the JSON stored in
``golden/io_order_pins.json``).
"""

import hashlib
import json
import pathlib

import pytest

from repro.dpp import DppSession, SessionSpec
from repro.dwrf import EncodingOptions
from repro.tectonic import TectonicFilesystem
from repro.warehouse import publish_table
from repro.workloads import RM1, RM2, RM3, build_mini_dataset

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "io_order_pins.json"
MODELS = {model.name: model for model in (RM1, RM2, RM3)}
WINDOWS = (0, 1_310_720)


def records_digest(trace) -> str:
    text = ";".join(
        f"{r.offset},{r.length},{r.useful_bytes}" for r in trace.records
    )
    return hashlib.sha256(text.encode()).hexdigest()


def order_pin(model_name: str, window: int) -> dict:
    """One two-worker session over a model's miniature table, drained."""
    dataset = build_mini_dataset(MODELS[model_name], ["p0", "p1"], 300, seed=3)
    # Blocks far smaller than the 8 MiB default, so coalesced reads span
    # several and some single-stream reads straddle a boundary.
    filesystem = TectonicFilesystem(n_nodes=6, chunk_bytes=40_000)
    footers = publish_table(
        filesystem, dataset.table, EncodingOptions(stripe_rows=100)
    )
    spec = SessionSpec(
        table_name=dataset.table.name,
        partitions=tuple(dataset.table.partition_names()),
        projection=dataset.projection,
        dag=dataset.dag,
        output_ids=dataset.output_ids,
        batch_size=128,
        coalesce_window=window,
    )
    session = DppSession(spec, filesystem, dataset.schema, footers, n_workers=2)
    client = session.clients[0]
    while not session.master.done or any(w.buffer for w in session.workers):
        for worker in session.workers:
            if worker.wants_work:
                worker.process_one_split()
        while client.get_batch() is not None:
            pass
    return {
        "workers": [
            {
                "io_count": worker.io_trace.io_count,
                "records_sha256": records_digest(worker.io_trace),
                "seek_count": worker.io_trace.seek_count(),
            }
            for worker in session.workers
        ],
        "nodes": [
            [node.served.io_count, node.served.bytes_read, node.served.seeks]
            for node in filesystem.nodes
        ],
    }


def all_pins() -> dict:
    return {
        name: {str(window): order_pin(name, window) for window in WINDOWS}
        for name in sorted(MODELS)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_io_order_and_replica_routing_are_identical(model_name, window, golden):
    assert order_pin(model_name, window) == golden[model_name][str(window)]


if __name__ == "__main__":
    print(json.dumps(all_pins(), indent=1))
