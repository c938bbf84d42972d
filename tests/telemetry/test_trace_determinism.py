"""The trace determinism contract.

A traced scenario must produce the *byte-identical* span stream no
matter how it was scheduled: inline, across any ``--jobs N`` fan-out,
or on a re-run at the same seed.  Sim-time stamping (never wall clock)
is what makes this possible; these tests are the enforcement.
"""

import pytest

from repro.common.serialization import report_from_json
from repro.experiments import SweepRunner, build_scenario, quick_grid
from repro.telemetry import Tracer, merge_traces

KINDS = ["fleet/busy", "chaos/seeded", "dpp/worker-churn"]


def run_traced(scenario):
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    return scenario.run(tracer), tracer.freeze()


class TestSerialVsParallel:
    def test_sweep_traces_identical_across_jobs(self):
        grid = quick_grid(seeds=(0, 1))
        _, serial = SweepRunner(grid, jobs=1).run("det", trace=True)
        _, parallel = SweepRunner(grid, jobs=2).run("det", trace=True)
        assert serial.to_json() == parallel.to_json()
        assert len(serial.processes) == len(grid.expand())


class TestFixedSeedReproducibility:
    @pytest.mark.parametrize("name", KINDS)
    def test_rerun_is_byte_identical(self, name):
        scenario = build_scenario(name, seed=5)
        _, first = run_traced(scenario)
        _, second = run_traced(scenario)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("name", KINDS)
    def test_different_seeds_differ(self, name):
        _, a = run_traced(build_scenario(name, seed=0))
        _, b = run_traced(build_scenario(name, seed=1))
        assert a.processes[0].run_id != b.processes[0].run_id


class TestTracingIsPassive:
    @pytest.mark.parametrize("name", KINDS)
    def test_traced_report_matches_untraced(self, name):
        scenario = build_scenario(name, seed=1)
        plain = scenario.run()
        traced, trace = run_traced(scenario)
        assert plain.to_json() == traced.to_json()
        assert trace.metrics()["trace.events"] > 0


class TestRoundTrips:
    def test_experiment_trace_revives_byte_identically(self):
        trace = merge_traces(
            run_traced(build_scenario(name, seed=2))[1] for name in KINDS
        )
        text = trace.to_json()
        revived = report_from_json(text)
        assert revived == trace
        assert revived.to_json() == text
