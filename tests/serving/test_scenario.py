"""ServingScenario: registry, report serialization, and the determinism
contract.

The acceptance bar for the serving plane: two runs at the same seed
produce byte-identical serving reports and traces.
"""

from repro.common import report_from_json
from repro.experiments import SCENARIOS, build_scenario, kind_of
from repro.serving import ServingReport, ServingScenario
from repro.telemetry import Tracer, merge_traces


def small(name="test/serving", **overrides):
    defaults = dict(
        name=name,
        seed=0,
        n_requests=150,
        n_partitions=2,
        rows_per_partition=128,
    )
    defaults.update(overrides)
    return ServingScenario(**defaults)


class TestRegistry:
    def test_serving_entries_are_registered(self):
        names = {name for name in SCENARIOS if kind_of(name) == "serving"}
        assert {
            "serving/steady", "serving/bursty", "serving/overload"
        } <= names

    def test_registry_builds_seeded_scenarios(self):
        scenario = build_scenario("serving/steady", seed=3)
        assert isinstance(scenario, ServingScenario)
        assert scenario.seed == 3
        assert scenario.name == "serving/steady/seed3"

    def test_mix_entries_carry_their_shapes(self):
        bursty = build_scenario("serving/bursty", seed=0)
        assert bursty.arrival_mix == "bursty"
        assert bursty.fetch_policy == "retry"
        hot = build_scenario("serving/overload", seed=0)
        assert hot.rate_per_s > hot.plane_config().rate_per_s - 1  # sanity
        assert hot.rate_per_s == 2_000.0


class TestSerialization:
    def test_report_round_trips_byte_identically(self):
        report = small().run()
        text = report.to_json()
        revived = report_from_json(text)
        assert isinstance(revived, ServingReport)
        assert revived.to_json() == text
        assert revived.metrics() == report.metrics()

    def test_report_metrics_expose_the_headline_numbers(self):
        flat = small().run().metrics()
        assert "serving.requests_per_s" in flat
        assert "serving.fetch_p99_ms" in flat
        assert flat["serving.arrivals"] == 150.0


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        assert small().run().to_json() == small().run().to_json()

    def test_different_seeds_differ(self):
        one = small(seed=1, name="test/serving1").run()
        two = small(seed=2, name="test/serving2").run()
        assert one.duration_s != two.duration_s

    def test_traced_runs_are_byte_identical_too(self):
        def traced():
            tracer = Tracer(scenario="test/serving", seed=0)
            report = small().run(tracer)
            return report.to_json(), tracer.freeze().to_json()

        first_report, first_trace = traced()
        second_report, second_trace = traced()
        assert first_report == second_report
        assert first_trace == second_trace

    def test_tracing_does_not_perturb_the_report(self):
        tracer = Tracer(scenario="test/serving", seed=0)
        traced = small().run(tracer)
        assert tracer.freeze().processes[0].events
        assert traced.to_json() == small().run().to_json()

    def test_merged_trace_nests_one_process_per_scenario(self):
        traces = []
        for scenario in (small(name="test/one"), small(name="test/two", seed=5)):
            tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
            scenario.run(tracer)
            traces.append(tracer.freeze())
        merged = merge_traces(traces)
        assert [p.name for p in merged.processes] == [
            "test/one", "test/two"
        ]
        revived = report_from_json(merged.to_json())
        assert revived.to_json() == merged.to_json()
