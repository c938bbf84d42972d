"""Serving simulation and the join/label/partition ETL path."""

import pytest

from repro.common.errors import ConfigError, StorageError
from repro.datagen import (
    EVENTS_CATEGORY,
    FEATURES_CATEGORY,
    BatchPartitioner,
    EventLog,
    FeatureLog,
    Scribe,
    ScribeDaemon,
    ServingSimulator,
    StreamingJoiner,
    label_from_event,
)
from repro.warehouse import DatasetProfile, Row, SampleGenerator, Table


@pytest.fixture
def pipeline():
    profile = DatasetProfile(n_dense=6, n_sparse=3, avg_coverage=0.6,
                             avg_sparse_length=4.0)
    generator = SampleGenerator(profile, seed=5)
    schema = generator.build_schema("t")
    scribe = Scribe()
    daemon = ScribeDaemon("host", scribe, flush_threshold=32)
    serving = ServingSimulator(schema, generator, daemon,
                               event_loss_rate=0.1, seed=6)
    return scribe, schema, serving


class TestServing:
    def test_request_ids_unique(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(50)
        logs = scribe.category(FEATURES_CATEGORY).read_from(0)
        ids = [record.payload.request_id for record in logs]
        assert len(set(ids)) == 50

    def test_features_always_logged_events_sometimes_lost(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(300, rate_per_s=100)
        n_features = scribe.category(FEATURES_CATEGORY).head_lsn
        n_events = scribe.category(EVENTS_CATEGORY).head_lsn
        assert n_features == 300
        assert 200 < n_events < 300  # ~10% loss

    def test_label_mapping(self):
        assert label_from_event(EventLog(1, 0.0, engaged=True)) == 1.0
        assert label_from_event(EventLog(1, 0.0, engaged=False)) == 0.0


class TestStreamingJoiner:
    def test_joins_on_request_id(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(200, rate_per_s=100)
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY)
        emitted = joiner.run_once(now=1e6)
        assert emitted == joiner.stats.joined
        assert joiner.stats.events_seen == emitted  # every event matched

    def test_unjoined_features_expire(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(100, start_time=0.0, rate_per_s=100)
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY,
                                 join_window_s=10.0)
        joiner.run_once(now=1e9)  # far future: all pending expire
        assert len(joiner._pending) == 0
        assert joiner.stats.expired_unjoined > 0

    def test_features_wait_within_window(self):
        scribe = Scribe()
        features = scribe.category(FEATURES_CATEGORY)
        features.write(
            FeatureLog(request_id=1, timestamp=0.0, sample=Row(0.0, dense={1: 1.0}))
        )
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY,
                                 join_window_s=100.0)
        assert joiner.run_once(now=5.0) == 0
        assert len(joiner._pending) == 1
        # Event arrives late but within the window: join succeeds.
        scribe.category(EVENTS_CATEGORY).write(
            EventLog(request_id=1, timestamp=50.0, engaged=True)
        )
        assert joiner.run_once(now=55.0) == 1

    def test_event_without_features_dropped(self):
        scribe = Scribe()
        scribe.category(EVENTS_CATEGORY).write(
            EventLog(request_id=42, timestamp=0.0, engaged=True)
        )
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY)
        assert joiner.run_once(now=1.0) == 0

    def test_incremental_consumption(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(50, rate_per_s=100)
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY)
        first = joiner.run_once(now=100.0)
        serving.serve_many(50, start_time=200.0, rate_per_s=100)
        second = joiner.run_once(now=300.0)
        assert first + second == joiner.stats.joined


class TestBatchPartitioner:
    def test_partitions_by_period(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(200, start_time=0.0, rate_per_s=10)  # spans 20s
        StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY).run_once(now=1e6)
        table = Table(schema)
        partitioner = BatchPartitioner(scribe, table, partition_period_s=5.0)
        written = partitioner.run_once()
        assert written > 150
        assert len(table) == 4  # 20s / 5s periods
        assert table.total_rows() == written

    def test_run_once_is_incremental(self, pipeline):
        scribe, schema, serving = pipeline
        serving.serve_many(60, rate_per_s=100)
        StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY).run_once(now=1e6)
        table = Table(schema)
        partitioner = BatchPartitioner(scribe, table, partition_period_s=60.0)
        first = partitioner.run_once()
        assert partitioner.run_once() == 0
        assert partitioner.rows_written == first

    def test_partition_names_dated(self):
        scribe = Scribe()
        table = Table(SampleGenerator(
            DatasetProfile(n_dense=1, n_sparse=0), seed=0
        ).build_schema("t"))
        partitioner = BatchPartitioner(scribe, table, partition_period_s=86_400.0)
        assert partitioner.partition_name_for(0.0) == "ds=00000"
        assert partitioner.partition_name_for(86_400.0 * 3 + 5) == "ds=00003"

    def test_labels_have_feature_signal(self, pipeline):
        """Engagement is feature-dependent, so labels aren't constant."""
        scribe, schema, serving = pipeline
        serving.serve_many(400, rate_per_s=100)
        StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY).run_once(now=1e6)
        table = Table(schema)
        BatchPartitioner(scribe, table, partition_period_s=1e6).run_once()
        labels = [row.label for row in table.scan()]
        assert 0.0 < sum(labels) / len(labels) < 1.0


class TestMultiHostServing:
    def test_request_ids_unique_across_hosts(self):
        """Serving simulators on different hosts must not collide on
        request IDs, or the streaming join silently drops samples."""
        profile = DatasetProfile(n_dense=3, n_sparse=1, avg_coverage=0.6,
                                 avg_sparse_length=3.0)
        generator = SampleGenerator(profile, seed=8)
        schema = generator.build_schema("t")
        scribe = Scribe()
        for index in range(3):
            daemon = ScribeDaemon(f"host{index}", scribe)
            serving = ServingSimulator(schema, generator, daemon,
                                       event_loss_rate=0.0, seed=index)
            serving.serve_many(100, rate_per_s=50)
        joiner = StreamingJoiner(scribe, FEATURES_CATEGORY, EVENTS_CATEGORY)
        joined = joiner.run_once(now=1e9)
        assert joined == 300


NAN = float("nan")
INF = float("inf")


def _serving(**rates):
    generator = SampleGenerator(DatasetProfile(n_dense=2, n_sparse=1), seed=0)
    schema = generator.build_schema("t")
    return ServingSimulator(
        schema, generator, ScribeDaemon("host", Scribe()), **rates
    )


@pytest.mark.parametrize(
    "error, make",
    [
        (ConfigError, lambda: _serving(event_loss_rate=NAN)),
        (ConfigError, lambda: _serving(event_loss_rate=1.5)),
        (ConfigError, lambda: _serving(event_loss_rate=-0.1)),
        (ConfigError, lambda: _serving(engagement_rate=NAN)),
        (ConfigError, lambda: _serving(engagement_rate=2.0)),
        (StorageError, lambda: StreamingJoiner(
            Scribe(), FEATURES_CATEGORY, EVENTS_CATEGORY, join_window_s=NAN)),
        (StorageError, lambda: StreamingJoiner(
            Scribe(), FEATURES_CATEGORY, EVENTS_CATEGORY, join_window_s=INF)),
        (StorageError, lambda: BatchPartitioner(
            Scribe(), Table(_serving().schema), partition_period_s=NAN)),
        (StorageError, lambda: BatchPartitioner(
            Scribe(), Table(_serving().schema), partition_period_s=INF)),
        (ConfigError, lambda: _serving().serve_many(10, rate_per_s=0)),
        (ConfigError, lambda: _serving().serve_many(10, rate_per_s=-5)),
        (ConfigError, lambda: _serving().serve_many(10, rate_per_s=NAN)),
        (ConfigError, lambda: _serving().serve_many(10, rate_per_s=INF)),
    ],
    ids=[
        "loss-nan", "loss-above-1", "loss-negative", "engagement-nan",
        "engagement-above-1", "window-nan", "window-inf", "period-nan",
        "period-inf", "rate-zero", "rate-negative", "rate-nan", "rate-inf",
    ],
)
def test_rates_windows_and_periods_out_of_range_are_refused(error, make):
    """Each of these used to be accepted (or to divide by zero) and then
    silently empty, mislabel or mis-time the serving log."""
    with pytest.raises(error):
        make()
