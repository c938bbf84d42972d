"""Differential tests: the serving log and the join against the map-copying oracle.

The serving host logs the row it served and the join relabels it, so a
round's samples reach the DWRF writer as the generator's columns.  The
oracle (``oracles.py``) is the write path as it was when the host logged
every row's maps and the join built labeled rows from them.  Driven from
the same seeds through the same steps — including a reader who looks at,
or edits, a logged record's maps mid-round — both must hand out the same
request IDs and outcome events, count the same join, publish equal rows
(labels included) and encode the same bytes and footers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.warehouse import DatasetProfile, FeatureType, Row, SampleGenerator, Table
from repro.warehouse.publish import encode_table
from repro.warehouse.row import FeatureColumn, SampleBatch

from .oracles import OracleServingSimulator, OracleStreamingJoiner, oracle_first_dense

PERIOD_S = 5.0


profiles = st.builds(
    DatasetProfile,
    n_dense=st.integers(0, 3),
    n_sparse=st.integers(0, 3),
    n_scored=st.integers(0, 2),
    # Down to coverage low enough that most rows log no dense feature.
    avg_coverage=st.sampled_from((0.03, 0.2, 0.6, 1.0)),
    avg_sparse_length=st.sampled_from((1.0, 3.0)),
    id_vocab_size=st.sampled_from((50, 2**40)),
)

serve_many = st.tuples(
    st.just("serve_many"), st.integers(0, 300), st.sampled_from((7.0, 100.0))
)
steps = st.one_of(
    serve_many,
    st.tuples(st.just("serve_one"), st.integers(1, 5), st.none()),
    st.tuples(st.just("read"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("edit"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("join"), st.none(), st.none()),
    st.tuples(st.just("partition"), st.none(), st.none()),
)


@st.composite
def rounds(draw):
    return {
        "profile": draw(profiles),
        "seed": draw(st.integers(0, 2**16)),
        "event_loss_rate": draw(st.sampled_from((0.0, 0.02, 0.5, 1.0))),
        "flush_threshold": draw(st.sampled_from((1, 7, 64, 1000))),
        "steps": [draw(serve_many), *draw(st.lists(steps, max_size=6))],
        "stripe_rows": draw(st.sampled_from((16, 100, 1000))),
    }


def payloads(scribe, category):
    return [record.payload for record in scribe.category(category).read_from(0)]


def feature_logs(scribe):
    return payloads(scribe, FEATURES_CATEGORY)


def run_round(case, serving_cls, joiner_cls):
    """Everything one round hands out, in the order it was handed out."""
    generator = SampleGenerator(case["profile"], seed=case["seed"])
    schema = generator.build_schema("served")
    dense_fids = [spec.feature_id for spec in schema if spec.ftype is FeatureType.DENSE]
    scribe = Scribe()
    daemon = ScribeDaemon("web000", scribe, flush_threshold=case["flush_threshold"])
    serving = serving_cls(
        schema, generator, daemon,
        event_loss_rate=case["event_loss_rate"], seed=case["seed"] + 1,
    )
    joiner = joiner_cls(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY, join_window_s=60.0)
    table = Table(schema)
    partitioner = BatchPartitioner(scribe, table, partition_period_s=PERIOD_S)
    clock = 0.0
    for kind, arg, rate in case["steps"]:
        if kind == "serve_many":
            serving.serve_many(arg, start_time=clock, rate_per_s=rate)
            clock += arg / rate
        elif kind == "serve_one":
            for _ in range(arg):
                serving.serve_one(clock)
                clock += 0.5
        elif kind in ("read", "edit"):
            logs = feature_logs(scribe)
            if logs:
                log = logs[arg % len(logs)]
                log.sparse  # builds the served batch's maps in production
                if kind == "edit" and dense_fids:
                    log.dense[dense_fids[arg % len(dense_fids)]] = 0.25
        elif kind == "join":
            joiner.run_once(now=clock)
        else:
            partitioner.run_once()
    daemon.flush()
    joiner.run_once(now=clock + 1e6)
    partitioner.run_once()
    options = EncodingOptions(
        layout=FileLayout.FLATTENED, stripe_rows=case["stripe_rows"]
    )
    files = encode_table(table, options)  # before anybody reads a published map
    events = payloads(scribe, EVENTS_CATEGORY)
    logged = [
        (log.request_id, log.timestamp, log.dense, log.sparse, log.scores)
        for log in feature_logs(scribe)
    ]
    return {
        "files": {name: (f.data, f.footer) for name, f in files.items()},
        "stats": joiner.stats,
        "request_ids": [entry[0] for entry in logged],
        "events": events,
        "rows": {name: table.partition(name).rows for name in table.partition_names()},
        "logged": logged,
    }


@given(rounds())
@settings(max_examples=200, deadline=None)
def test_serving_log_and_join_match_the_oracle(case):
    produced = run_round(case, ServingSimulator, StreamingJoiner)
    expected = run_round(case, OracleServingSimulator, OracleStreamingJoiner)
    assert produced["files"] == expected["files"]
    assert produced["stats"] == expected["stats"]
    assert produced["request_ids"] == expected["request_ids"]
    assert produced["events"] == expected["events"]
    assert produced["rows"] == expected["rows"]
    assert produced["logged"] == expected["logged"]


def test_a_round_nobody_reads_builds_no_map():
    profile = DatasetProfile(n_dense=4, n_sparse=3, n_scored=1, avg_coverage=0.5,
                             avg_sparse_length=3.0)
    generator = SampleGenerator(profile, seed=3)
    schema = generator.build_schema("unread")
    scribe = Scribe()
    serving = ServingSimulator(schema, generator, ScribeDaemon("web000", scribe), seed=4)
    serving.serve_many(600)
    StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY).run_once(now=1e6)
    table = Table(schema)
    BatchPartitioner(scribe, table).run_once()
    encode_table(table, EncodingOptions(stripe_rows=100))
    rows = list(table.scan())
    batches = {id(row.batch): row.batch for row in rows}
    assert len(rows) > 500 and None not in batches.values()
    assert len(batches) == 3  # 600 requests, drawn 256 at a time
    assert not any(batch.maps_built for batch in batches.values())
    logs = feature_logs(scribe)
    assert all(log.sample.batch is not None for log in logs)


# --- the engagement signal and the relabel, on hand-drawn batches ---------


@st.composite
def batches(draw):
    """A batch whose dense and sparse columns come in any drawn order."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(("dense", "sparse", "scored")), max_size=5))
    columns = {}
    for fid, kind in enumerate(kinds):
        rows = np.array(
            sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))),
            dtype=np.int64,
        )
        if kind == "dense":
            values = draw(
                st.lists(st.floats(-4, 4), min_size=len(rows), max_size=len(rows))
            )
            columns[fid] = FeatureColumn(rows, values=np.array(values))
            continue
        lengths = np.array(
            draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows))),
            dtype=np.int64,
        )
        total = int(lengths.sum())
        columns[fid] = FeatureColumn(
            rows,
            lengths=lengths,
            ids=np.arange(total, dtype=np.int64),
            scores=np.linspace(0, 1, total) if kind == "scored" else None,
        )
    labels = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    return SampleBatch(np.array(labels, dtype=np.float64), columns)


@given(batches(), st.sampled_from(("arrays", "maps", "edited")), st.data())
@settings(max_examples=300, deadline=None)
def test_first_dense_is_the_first_value_of_the_dense_map(batch, state, data):
    if state != "arrays":
        dense_of = batch.maps()[0]
        if state == "edited" and len(batch):
            # In place, after the maps became the content: empty a dense
            # map, or give an empty one a value the columns never held.
            for index in data.draw(st.sets(st.integers(0, len(batch) - 1))):
                if dense_of[index]:
                    dense_of[index].clear()
                else:
                    dense_of[index][99] = -3.5
    default = data.draw(st.sampled_from((0.0, -1.0)))
    rows = batch.rows()
    signals = [row.first_dense(default) for row in rows]
    # Reading the signal built no maps and detached no view.
    assert batch.maps_built == (state != "arrays")
    assert all(row.batch is batch for row in rows) or state != "arrays"
    assert signals == [oracle_first_dense(row, default) for row in batch.rows()]
    assert all(type(signal) is float for signal in signals)


@pytest.mark.parametrize("dense", [{}, {3: 2.5, 1: -1.0}])
def test_first_dense_of_a_hand_built_row_reads_its_map(dense):
    row = Row(1.0, dense=dense, sparse={7: [1, 2]})
    assert row.first_dense(0.5) == next(iter(dense.values()), 0.5)


@given(batches(), st.booleans(), st.sampled_from((0.0, 1.0)))
@settings(max_examples=100, deadline=None)
def test_relabeled_is_the_same_sample_under_the_new_label(batch, built, label):
    if built:
        batch.maps()
    for row in batch.rows():
        relabeled = row.relabeled(label)
        assert relabeled.batch is batch
        assert (relabeled.index, relabeled.label) == (row.index, label)
    for row in batch.rows():
        row.dense  # detached: a row holding maps
        relabeled = row.relabeled(label)
        assert relabeled.batch is None and relabeled.label == label
        assert relabeled.dense is row.dense
        assert relabeled.sparse is row.sparse
        assert relabeled.scores is row.scores
