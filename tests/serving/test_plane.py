"""The serving plane: invariants, admission policies, provenance."""

import gc
import weakref

import pytest

from repro.common.errors import ConfigError
from repro.serving import PlaneConfig, ServingScenario
from repro.telemetry import Tracer


def scenario(**overrides):
    """A small, fast load test (≲1 s virtual, sub-second wall)."""
    defaults = dict(
        name="test/serving",
        seed=0,
        n_requests=200,
        n_partitions=2,
        rows_per_partition=128,
    )
    defaults.update(overrides)
    return ServingScenario(**defaults)


def overload(**overrides):
    """Arrivals far beyond pipeline capacity: admission control bites."""
    defaults = dict(
        rate_per_s=2_000.0,
        fetch_queue_bound=16,
        max_pool_workers=3,
    )
    defaults.update(overrides)
    return scenario(**defaults)


class TestOutcomeInvariants:
    def test_every_arrival_is_served_or_shed(self):
        report = scenario().run()
        assert report.arrivals == 200
        assert report.served + report.shed == report.arrivals
        assert len(report.queues) == 4 and len(report.pools) == 2

    def test_steady_within_capacity_serves_everything(self):
        report = scenario().run()
        assert report.served == 200
        assert report.shed == 0 and report.retries == 0
        assert report.requests_per_s > 0
        assert report.duration_s > 0

    def test_epochs_loop_the_finite_table(self):
        # 200 fetches against a 4-batch table: the feeder must reopen
        # the master's split set many times over.
        report = scenario().run()
        assert report.epochs > 1
        assert report.batches_produced >= report.served

    def test_queue_stats_cover_all_four_queues(self):
        report = scenario().run()
        assert [q.name for q in report.queues] == [
            "fetch", "extract", "transform", "ready",
        ]
        fetch = report.queues[0]
        assert fetch.total_enqueued == report.served
        for stats in report.queues:
            assert 0 <= stats.mean_depth <= stats.peak_depth


class TestAdmissionControl:
    def test_shed_policy_drops_on_full_backlog(self):
        report = overload(fetch_policy="shed").run()
        assert report.shed > 0
        assert report.retries == 0
        assert report.served + report.shed == report.arrivals

    def test_retry_policy_backs_off_then_sheds(self):
        report = overload(fetch_policy="retry", max_retries=3).run()
        assert report.retries > 0
        # Bounded retries: never more than max_retries per arrival.
        assert report.retries <= 3 * report.arrivals
        assert report.served + report.shed == report.arrivals

    def test_retry_serves_more_than_shed_at_the_same_load(self):
        dropped = overload(fetch_policy="shed").run()
        retried = overload(fetch_policy="retry").run()
        assert retried.served >= dropped.served

    def test_overload_latency_tail_is_visible(self):
        report = overload(fetch_policy="retry").run()
        assert report.fetch_p99_ms >= report.fetch_p50_ms >= 0.0
        assert report.fetch_p999_ms >= report.fetch_p99_ms


class TestAutoscaling:
    def test_pools_scale_independently_under_load(self):
        # A longer overload run so several control periods elapse while
        # both stages are backlogged.
        report = overload(
            fetch_policy="retry",
            max_pool_workers=4,
            n_requests=1_000,
            rate_per_s=1_000.0,
            control_period_s=0.25,
        ).run()
        extract, transform = report.pools
        assert extract.role == "extract" and transform.role == "transform"
        assert extract.peak > extract.initial
        assert transform.peak > transform.initial
        assert extract.peak <= 4 and transform.peak <= 4

    def test_autoscale_off_pins_the_pool_sizes(self):
        report = overload(autoscale=False).run()
        for stats in report.pools:
            assert stats.peak == stats.initial
            assert stats.launches == stats.initial
            assert stats.drains == 0


class TestProvenance:
    def test_transform_items_link_back_to_extract_parents(self):
        tracer = Tracer(scenario="test/serving", seed=0)
        scenario(n_requests=60).run(tracer)
        trace = tracer.freeze()
        events = [e for p in trace.processes for e in p.events]
        parents = {
            dict(e.args)["task_id"]
            for e in events
            if e.name == "extract.split"
        }
        children = [
            dict(e.args) for e in events if e.name == "transform.batch"
        ]
        assert parents and children
        for child in children:
            assert child["parent_id"] in parents
            # The child id embeds parent id + batch sequence.
            assert child["task_id"] == (
                f"{child['parent_id']}-b{child['sequence']}"
            )

    def test_queue_depth_gauges_are_recorded(self):
        tracer = Tracer(scenario="test/serving", seed=0)
        scenario().run(tracer)
        trace = tracer.freeze()
        counters = {
            e.name
            for p in trace.processes
            for e in p.events
            if e.phase == "C"
        }
        assert {
            "serving.fetch_queue.depth",
            "serving.extract_queue.depth",
            "serving.transform_queue.depth",
            "serving.ready_queue.depth",
        } <= counters


class TestConfigValidation:
    def test_bad_arrival_mix_rejected(self):
        with pytest.raises(ConfigError, match="arrival mix"):
            PlaneConfig(arrival_mix="chaotic")

    def test_bad_fetch_policy_rejected(self):
        with pytest.raises(ConfigError, match="fetch policy"):
            PlaneConfig(fetch_policy="drop")

    def test_rate_and_requests_must_be_positive(self):
        with pytest.raises(ConfigError):
            PlaneConfig(rate_per_s=0.0)
        with pytest.raises(ConfigError):
            PlaneConfig(n_requests=0)

    def test_pools_need_at_least_one_worker(self):
        with pytest.raises(ConfigError):
            PlaneConfig(extract_workers=0)
        with pytest.raises(ConfigError):
            PlaneConfig(transform_workers=0)

    def test_scenario_delegates_plane_validation(self):
        with pytest.raises(ConfigError, match="fetch policy"):
            scenario(fetch_policy="drop")
        with pytest.raises(ConfigError, match="non-empty table"):
            scenario(n_partitions=0)


class TestTeardown:
    def test_a_finished_plane_frees_its_workers_without_the_collector(self):
        """``run()`` used to leave workers, readers and buffered batches
        reachable through cycles (plane ↔ pools, queues → kernel,
        pending timers → kernel → tasks → coroutines → plane), so a
        process running planes back to back grew until ``gc`` ran."""
        plane = scenario().build_plane()
        held = []  # every pool worker and every batch that reached the ready queue
        build_worker, accept = plane.build_worker, plane.ready_queue._accept

        def holding_build_worker(name):
            held.append(build_worker(name))
            return held[-1]

        def holding_accept(tensors):
            held.append(tensors)
            accept(tensors)

        plane.build_worker = holding_build_worker
        plane.ready_queue._accept = holding_accept
        gc.collect()
        gc.disable()
        try:
            report = plane.run()
            assert report.served == 200 and plane.ready_queue.total_enqueued > 200
            workers = [item for item in held if hasattr(item, "io_trace")]
            readers = [r for worker in workers for r in worker._readers.values()]
            assert len(workers) >= 3 and readers and len(held) > len(workers)
            refs = [weakref.ref(item) for item in held + readers]
            del plane, held, workers, readers, build_worker, accept
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_teardown_keeps_what_the_report_is_sealed_from(self):
        plane = scenario().build_plane()
        report = plane.run()
        assert report.to_json() == scenario().run().to_json()
        assert not plane.kernel.tasks
        assert plane.clock.pending == 0  # cancelled tasks took their timers along
        assert all(queue.depth == 0 for queue in plane._queues)
        assert [pool.size for pool in (plane.extract_pool, plane.transform_pool)] == [
            stats.final for stats in report.pools
        ]
