"""The named scenario table: catalog coverage and the one lookup."""

import ast
import dataclasses
import gc
import inspect
import subprocess
import sys
import weakref

import pytest

from repro.chaos.runner import ChaosRunner
from repro.common.errors import ConfigError
from repro.dpp.simulation import TimedDppSimulation
from repro.experiments import SCENARIOS, build_scenario, kind_of, registry
from repro.experiments.__main__ import build_parser
from repro.fleet.simulator import FleetSimulator
from repro.serving.plane import ServingPlane
from repro.telemetry import Tracer

#: The engine each scenario kind builds and drives inside ``run``.
ENGINES = (ChaosRunner, FleetSimulator, ServingPlane, TimedDppSimulation)
KINDS = {"fleet", "chaos", "dpp", "serving"}


class TestBuiltinCatalog:
    def test_names_are_unique_and_namespaced(self):
        # A literal dict keeps the last of two equal keys, so read the
        # keys from the source.
        tree = ast.parse(inspect.getsource(registry))
        (table,) = [
            node.value
            for node in tree.body
            if isinstance(node, ast.AnnAssign) and node.target.id == "SCENARIOS"
        ]
        names = [key.value for key in table.keys]
        assert len(names) == len(set(names)) == len(SCENARIOS) >= 8
        for name in names:
            kind, _, rest = name.partition("/")
            assert kind in KINDS and rest and "/" not in rest

    def test_at_least_eight_scenarios_spanning_all_kinds(self):
        assert len(SCENARIOS) >= 8
        assert {kind_of(name) for name in SCENARIOS} == KINDS

    def test_every_entry_builds_its_own_kind(self):
        # The kind is the name's first segment, at every seed.
        for name in sorted(SCENARIOS):
            for seed in (0, 1):
                scenario = build_scenario(name, seed=seed)
                assert scenario.kind == kind_of(name)
                assert scenario.seed == seed
                assert scenario.name == f"{name}/seed{seed}"

    def test_list_kind_choices_are_the_prefixes(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        (kind,) = [a for a in commands["list"]._actions if a.dest == "kind"]
        assert kind.choices == sorted(KINDS)
        assert set(kind.choices) == {kind_of(name) for name in SCENARIOS}

    def test_default_seed_is_zero(self):
        assert build_scenario("fleet/default").seed == 0


class TestMechanics:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigError, match="fleet/default"):
            build_scenario("fleet/nope")


@pytest.mark.parametrize("package", ["repro.serving", "repro.experiments"])
def test_either_package_imports_first(package):
    code = f"import {package}; from repro.experiments import build_scenario; "
    code += "print(type(build_scenario('serving/steady')).__name__)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "ServingScenario\n"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_run_is_freed_without_the_cycle_collector(name, traced, monkeypatch):
    # Sweeps, benchmarks and the CLI build and drop one engine per run:
    # an edge back to it (a pool's plane, a tracer's clock read) would
    # leave every run to the cycle collector, and so would any other
    # cycle the run makes.  A tracer outlives its run.
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
    gc.collect()
    gc.disable()
    try:
        scenario.run(tracer)
        assert len(engines) == 1
        assert engines[0]() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
