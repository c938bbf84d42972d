"""The named scenario registry: catalog coverage and mechanics."""

import dataclasses
import gc
import weakref

import pytest

from repro.chaos.runner import ChaosRunner
from repro.common.errors import ConfigError
from repro.dpp.simulation import TimedDppSimulation
from repro.experiments import (
    DppTimelineScenario,
    build_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from repro.fleet.simulator import FleetSimulator
from repro.serving.plane import ServingPlane
from repro.telemetry import Tracer

#: The engine each scenario kind builds and drives inside ``run``.
ENGINES = (ChaosRunner, FleetSimulator, ServingPlane, TimedDppSimulation)


class TestBuiltinCatalog:
    def test_at_least_eight_scenarios_spanning_all_kinds(self):
        entries = list_scenarios()
        assert len(entries) >= 8
        assert {entry.kind for entry in entries} == {
            "fleet", "chaos", "dpp", "serving",
        }

    def test_listing_is_sorted_and_stable(self):
        names = [entry.name for entry in list_scenarios()]
        assert names == sorted(names)
        assert names == [entry.name for entry in list_scenarios()]

    def test_kind_filter(self):
        chaos = list_scenarios(kind="chaos")
        assert chaos and all(entry.kind == "chaos" for entry in chaos)

    def test_every_entry_builds_its_own_kind(self):
        for entry in list_scenarios():
            scenario = entry.build(seed=1)
            assert scenario.kind == entry.kind
            assert scenario.seed == 1
            assert scenario.name.startswith(entry.name)

    def test_default_seed_is_zero(self):
        assert build_scenario("fleet/default").seed == 0


class TestMechanics:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigError, match="fleet/default"):
            get_scenario("fleet/nope")

    def test_registration_requires_namespace(self):
        with pytest.raises(ConfigError, match="namespaced"):
            register_scenario("flat", "dpp", "d", lambda seed: None)

    def test_registration_requires_known_kind(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            register_scenario("flet/typo", "flet", "d", lambda seed: None)

    def test_duplicate_registration_rejected_then_overwritable(self):
        factory = lambda seed: DppTimelineScenario(
            name=f"dpp/test-entry/seed{seed}", seed=seed
        )
        register_scenario("dpp/test-entry", "dpp", "a test entry", factory)
        try:
            with pytest.raises(ConfigError, match="already registered"):
                register_scenario("dpp/test-entry", "dpp", "clash", factory)
            register_scenario(
                "dpp/test-entry", "dpp", "replaced", factory, overwrite=True
            )
            assert get_scenario("dpp/test-entry").description == "replaced"
        finally:
            unregister_scenario("dpp/test-entry")
        with pytest.raises(ConfigError):
            get_scenario("dpp/test-entry")

    def test_registered_entry_runs(self):
        register_scenario(
            "dpp/tiny-test",
            "dpp",
            "ten-second smoke",
            lambda seed: DppTimelineScenario(
                name=f"dpp/tiny-test/seed{seed}", seed=seed, duration_s=10.0
            ),
        )
        try:
            report = build_scenario("dpp/tiny-test", seed=0).run()
            assert report.report_kind == "dpp"
        finally:
            unregister_scenario("dpp/tiny-test")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [entry.name for entry in list_scenarios()])
def test_a_run_is_freed_without_the_cycle_collector(name, traced, monkeypatch):
    # Sweeps, benchmarks and the CLI build and drop one engine per run:
    # an edge back to it (a pool's plane, a tracer's clock read) would
    # leave every run to the cycle collector.  A tracer outlives its run.
    engines = []
    for cls in ENGINES:

        def run(self, *args, _run=cls.run, **kwargs):
            engines.append(weakref.ref(self))
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", run)
    scenario = build_scenario(name, seed=0)
    if scenario.kind == "serving":
        scenario = dataclasses.replace(scenario, n_requests=30)
    tracer = Tracer(scenario=scenario.name) if traced else None
    gc.disable()
    try:
        scenario.run(tracer)
        assert len(engines) == 1
        assert engines[0]() is None
    finally:
        gc.enable()
