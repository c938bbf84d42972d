"""Who owns a sample's containers along serving log -> join -> table.

A sample's maps and per-feature sequences are built once, by the
generator, and carried by reference through the feature log into the
labeled row.  Nobody mutates them: retention, the one writer of
published rows, replaces a row's map when it reaps a feature, so the raw
feature record stays as logged for as long as Scribe keeps it readable.
"""

import copy

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
from repro.warehouse import (
    DatasetProfile,
    FeatureStatus,
    RetentionPolicy,
    SampleGenerator,
    Table,
    enforce_retention,
    verify_reaped,
)


@pytest.fixture
def published():
    """(scribe, table) after one served, joined and partitioned round."""
    profile = DatasetProfile(
        n_dense=6, n_sparse=4, n_scored=2, avg_coverage=0.8, avg_sparse_length=4.0
    )
    generator = SampleGenerator(profile, seed=11)
    schema = generator.build_schema("owned")
    scribe = Scribe()
    serving = ServingSimulator(
        schema, generator, ScribeDaemon("web000", scribe), seed=12
    )
    serving.serve_many(150, rate_per_s=100.0)
    joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY)
    assert joiner.run_once(now=1e6) > 100
    table = Table(schema)
    BatchPartitioner(scribe, table).run_once()
    return scribe, table


def feature_records(scribe):
    return [record.payload for record in scribe.category(FEATURES_CATEGORY).read_from(0)]


def test_joined_rows_are_the_logged_features_not_copies(published):
    scribe, table = published
    logs = feature_records(scribe)
    maps = {id(log.sample.dense): log for log in logs}
    rows = list(table.scan())
    assert rows
    for row in rows:
        log = maps[id(row.dense)]
        assert row.sparse is log.sample.sparse
        assert row.scores is log.sample.scores
    assert len({id(row.dense) for row in rows}) == len(rows)


@pytest.mark.parametrize("kind", ["dense", "sparse", "scored"])
def test_reaping_a_published_feature_leaves_feature_records_alone(published, kind):
    scribe, table = published
    schema = table.schema
    victim = {
        "dense": SampleGenerator.DENSE_BASE,
        "sparse": SampleGenerator.SPARSE_BASE,
        "scored": SampleGenerator.SCORED_BASE,
    }[kind]
    before = copy.deepcopy(feature_records(scribe))
    assert any(victim in {*log.sample.dense, *log.sample.sparse} for log in before)

    schema.set_status(victim, FeatureStatus.DEPRECATED)
    report = enforce_retention(
        table,
        RetentionPolicy(max_partitions=10, reap_deprecated_after_days=0),
        current_day=1,
    )
    assert report.features_reaped == [victim]
    assert verify_reaped(table, victim)
    assert feature_records(scribe) == before
