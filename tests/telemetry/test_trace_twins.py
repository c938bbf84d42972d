"""Every per-run count a scenario keeps reaches an artifact.

The trace is the telemetry plane's only channel, so a count a plane
records must be readable from the frozen :class:`Trace` — and where the
scenario's report states the same count, the two must agree.  Each
case pairs one trace stream with the report figure it twins.
"""

import pytest

from repro.experiments import build_scenario, list_scenarios
from repro.telemetry import Tracer


def names(kind: str) -> list[str]:
    return [entry.name for entry in list_scenarios() if entry.kind == kind]


def traced(name: str, seed: int = 0):
    scenario = build_scenario(name, seed=seed)
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    report = scenario.run(tracer)
    events = [event for proc in tracer.freeze().processes for event in proc.events]
    return report, events


def count(events, name: str) -> int:
    return sum(1 for event in events if event.name == name)


@pytest.mark.parametrize("name", names("fleet"))
def test_fleet_tick_samples_twin_the_report_samples(name):
    report, events = traced(name)
    assert report.samples
    assert count(events, "fleet.live_workers") == len(report.samples)


@pytest.mark.parametrize("name", names("dpp"))
def test_dpp_tick_samples_twin_the_report_ticks(name):
    report, events = traced(name)
    ticks = report.metrics()["dpp.ticks"]
    assert ticks > 0
    assert count(events, "dpp.live_workers") == ticks
    assert count(events, "dpp.buffered_batches") == ticks


@pytest.mark.parametrize("name", names("chaos"))
def test_fault_instants_twin_the_report_fault_count(name):
    report, events = traced(name)
    faults = report.metrics()["chaos.faults_injected"]
    assert faults > 0
    assert count(events, "fault.inject") == faults
