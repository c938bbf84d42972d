"""Cross-commit byte-identity pins for the write path.

The DSI benchmark compares rounds *within* one run; nothing there
notices a change that moves every round the same way.  These pins were
recorded at the commit before the write path stopped re-copying samples
(running this file as a script against that commit's ``src/`` prints the
JSON stored in ``golden/write_path_pins.json``).  They hold serving log
-> join -> partition -> DWRF encode to the same encoded bytes and the
same join counters, and ``generate_rows`` to the same rows in the same
RNG draw order, so ``bytes_per_item`` cannot drift.
"""

import hashlib
import json
import pathlib
from dataclasses import asdict

import pytest

from repro.datagen import (
    EVENTS_CATEGORY,
    FEATURES_CATEGORY,
    BatchPartitioner,
    Scribe,
    ScribeDaemon,
    ServingSimulator,
    StreamingJoiner,
)
from repro.dwrf import EncodingOptions, FileLayout
from repro.warehouse import SampleGenerator, Table
from repro.warehouse.publish import encode_table
from repro.workloads import RM1, RM2, RM3, build_mini_dataset

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "write_path_pins.json"
MODELS = {model.name: model for model in (RM1, RM2, RM3)}
ROUND_SEEDS = (0, 7)
REQUESTS = 400
RATE_PER_S = 100.0
GENERATED_ROWS = 300


def round_pin(seed: int) -> dict:
    """One 400-request RM1-miniature round, serving log to encoded file."""
    dataset = build_mini_dataset(RM1, [], 0, seed=0)
    period_s = REQUESTS / RATE_PER_S
    scribe = Scribe()
    serving = ServingSimulator(
        dataset.schema,
        SampleGenerator(dataset.generator.profile, seed=seed),
        ScribeDaemon("web000", scribe),
        seed=seed,
    )
    joiner = StreamingJoiner(
        scribe, FEATURES_CATEGORY, EVENTS_CATEGORY, join_window_s=period_s
    )
    table = Table(dataset.schema)
    partitioner = BatchPartitioner(scribe, table, partition_period_s=period_s)
    serving.serve_many(REQUESTS, 0.0, RATE_PER_S)
    joiner.run_once(now=2.0 * period_s)
    partitioner.run_once()
    # 100-row stripes: the joined row count is not a multiple of them.
    files = encode_table(
        table, EncodingOptions(layout=FileLayout.FLATTENED, stripe_rows=100)
    )
    sha = hashlib.sha256()
    for name in sorted(files):
        sha.update(files[name].data)
    stripes = [s for f in files.values() for s in f.footer.stripes]
    return {
        "encoded_sha256": sha.hexdigest(),
        "encoded_bytes": sum(f.size for f in files.values()),
        "join_stats": asdict(joiner.stats),
        "partitions": sorted(files),
        "rows": sum(f.footer.row_count for f in files.values()),
        "stripes": len(stripes),
        "streams": sum(len(s.streams) for s in stripes),
    }


def generated_rows_digest(model_name: str) -> str:
    """Every value of a model miniature's ``generate_rows`` output, in order.

    ``repr`` keeps map insertion order, the float digits and the
    container types, so a reordered RNG draw, a tuple where a list was,
    or a feature scattered to the wrong row all change the digest.
    """
    dataset = build_mini_dataset(MODELS[model_name], [], 0, seed=3)
    rows = dataset.generator.generate_rows(dataset.schema, GENERATED_ROWS)
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr((row.label, row.dense, row.sparse, row.scores)).encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", ROUND_SEEDS)
def test_round_encodes_to_the_same_bytes_and_counts(seed, golden):
    assert round_pin(seed) == golden["rounds"][str(seed)]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_generate_rows_draws_the_same_rows(model_name, golden):
    assert generated_rows_digest(model_name) == golden["generated_rows_sha256"][model_name]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "rounds": {str(seed): round_pin(seed) for seed in ROUND_SEEDS},
                "generated_rows_sha256": {
                    name: generated_rows_digest(name) for name in sorted(MODELS)
                },
            },
            indent=1,
        )
    )
