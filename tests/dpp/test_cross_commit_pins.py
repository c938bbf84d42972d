"""Cross-commit byte-identity pins for the DPP worker hot path.

The DSI benchmark compares units *within* one run; nothing there notices
a change that moves every unit the same way.  These digests were recorded
at the commit before the worker hot path was optimized (running this
file as a script against that commit's ``src/`` prints the JSON stored
in ``golden/dpp_pins.json``) and hold the optimized path to the same
delivered tensors, the same modelled cycles, the same I/O accounting and
the same serving report, byte for byte.
"""

import hashlib
import json
import pathlib
import zlib

import pytest

from repro.dpp import DppSession, SessionSpec
from repro.dwrf import EncodingOptions
from repro.experiments import build_scenario
from repro.tectonic import TectonicFilesystem
from repro.warehouse import publish_table
from repro.workloads import RM1, RM2, RM3, build_mini_dataset

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "dpp_pins.json"
MODELS = {model.name: model for model in (RM1, RM2, RM3)}
SERVING_SEEDS = (0, 7)


def serving_digest(seed: int) -> str:
    report = build_scenario("serving/bursty", seed=seed).run()
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def session_pin(model_name: str) -> dict:
    """One two-worker session over a model's miniature table, drained."""
    dataset = build_mini_dataset(MODELS[model_name], ["p0", "p1"], 300, seed=3)
    filesystem = TectonicFilesystem(n_nodes=6)
    footers = publish_table(
        filesystem, dataset.table, EncodingOptions(stripe_rows=200)
    )
    spec = SessionSpec(
        table_name=dataset.table.name,
        partitions=tuple(dataset.table.partition_names()),
        projection=dataset.projection,
        dag=dataset.dag,
        output_ids=dataset.output_ids,
        batch_size=128,
        coalesce_window=1_310_720,
    )
    session = DppSession(spec, filesystem, dataset.schema, footers, n_workers=2)
    client = session.clients[0]
    crc = 0
    batches = 0
    while not session.master.done or any(w.buffer for w in session.workers):
        for worker in session.workers:
            if worker.wants_work:
                worker.process_one_split()
        while (batch := client.get_batch()) is not None:
            batches += 1
            crc = zlib.crc32(batch.labels, crc)
            for tensors in (
                batch.dense,
                batch.sparse_offsets,
                batch.sparse_values,
                batch.sparse_weights,
            ):
                for fid in sorted(tensors):
                    crc = zlib.crc32(tensors[fid], crc)
    workers = session.workers
    return {
        "batches": batches,
        "tensor_crc": f"{crc:08x}",
        "transform_cycles": sum(w.stats.transform_report.cycles for w in workers),
        "io_count": sum(w.io_trace.io_count for w in workers),
        "bytes_read": sum(w.io_trace.bytes_read for w in workers),
        "useful_bytes": sum(w.io_trace.useful_bytes for w in workers),
        "cpu_cycles": sum(w.stats.usage.cpu_cycles for w in workers),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SERVING_SEEDS)
def test_serving_bursty_report_is_byte_identical(seed, golden):
    assert serving_digest(seed) == golden["serving_bursty_sha256"][str(seed)]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_session_delivery_and_accounting_are_identical(model_name, golden):
    assert session_pin(model_name) == golden["sessions"][model_name]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "serving_bursty_sha256": {
                    str(seed): serving_digest(seed) for seed in SERVING_SEEDS
                },
                "sessions": {name: session_pin(name) for name in sorted(MODELS)},
            },
            indent=1,
        )
    )
