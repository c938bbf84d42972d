"""Cross-commit byte-identity pins for the fleet plane.

The tick-equivalence suites compare two engines *within* one commit;
nothing there notices a change that moves both the same way.  These pins
were recorded at the commit before the fleet simulator lost its vector
tick, its grant memo and its ``fused=`` switch (running this file as a
script against that commit's ``src/`` prints the JSON stored in
``golden/fleet_pins.json``).  They hold every report byte, control-round
grant and flat-summary float of the four registry ``fleet/*`` scenarios,
of a 32-job wave region and a 64-job staggered region (the two widths
the deleted numpy flavour used to serve), and the deterministic bytes of
the quick-grid sweep.  ``grants_sha256`` digests what
:func:`~tests.fleet.oracles.observe_grants` records; it replaced a digest
of the allocator's round log and was recorded at the last commit that
kept the log, where the observer's rows equal the log's
``(time_s, granted)`` on every pinned run.
"""

import hashlib
import json
import pathlib

import pytest

from repro.cluster.job import JobKind
from repro.experiments import SweepRunner, build_scenario, quick_grid
from repro.fleet import (
    FleetConfig,
    FleetJobSpec,
    FleetSimulator,
    PoolConfig,
    StorageFabric,
)
from repro.workloads.models import RM1, RM2, RM3

from .oracles import observe_grants

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fleet_pins.json"
MODELS = (RM1, RM2, RM3)
SEEDS = (0, 1, 2, 3, 4)
REGISTRY_SCENARIOS = ("fleet/busy", "fleet/calm", "fleet/default", "fleet/storm")


def _jobs(n_jobs: int, hours: float, arrival_s) -> list[FleetJobSpec]:
    return [
        FleetJobSpec(
            job_id=i,
            model=MODELS[i % 3],
            kind=JobKind.EXPLORATORY,
            arrival_s=arrival_s(i),
            trainer_nodes=2,
            target_samples=hours
            * 3600
            * 2
            * MODELS[i % 3].samples_per_s_per_trainer,
        )
        for i in range(n_jobs)
    ]


def wave_region() -> tuple[FleetConfig, list[FleetJobSpec]]:
    """32 six-hour jobs in 4 waves 900 s apart, all admitted at once —
    four times wider than any sweep cell, whose simulator speed the
    ``fleet.events_per_s`` probe of ``benchmarks.dsi``'s ``fleet_sweep``
    workload measures."""
    config = FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=40, n_ssd_cache_nodes=4),
        n_trainer_nodes=64,
        pool=PoolConfig(max_workers=2_000),
    )
    return config, _jobs(32, 6.0, lambda i: 900.0 * (i // 8))


def staggered_region() -> tuple[FleetConfig, list[FleetJobSpec]]:
    """64 two-hour jobs arriving 90 s apart: every admission is its own
    membership epoch and the region peaks at 64 concurrently active."""
    config = FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=200, n_ssd_cache_nodes=16),
        n_trainer_nodes=128,
        pool=PoolConfig(max_workers=8_000),
    )
    return config, _jobs(64, 2.0, lambda i: 90.0 * i)


REGIONS = {"wave32": wave_region, "staggered64": staggered_region}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def simulator_pin(simulator: FleetSimulator) -> dict:
    """Run *simulator* to completion; digest everything it produced.

    ``repr`` keeps every float digit (and spells ``nan``), so one
    drifted ULP in a report row, a grant or a summary aggregate changes
    a digest.
    """
    grants = observe_grants(simulator)
    report = simulator.run()
    return {
        "report_sha256": _sha(report.to_json()),
        "grants_sha256": _sha(repr(grants)),
        "summary_sha256": _sha(repr(sorted(simulator.result_summary().items()))),
        "events_fired": simulator.clock.fired,
        "peak_concurrency": report.peak_concurrency,
    }


def scenario_pin(name: str, seed: int) -> dict:
    simulator = build_scenario(name, seed).build()
    if simulator is None:  # a sparse mix can draw zero arrivals
        return {"empty": True}
    return simulator_pin(simulator)


def region_pin(name: str) -> dict:
    config, jobs = REGIONS[name]()
    return simulator_pin(FleetSimulator(config, jobs))


def quick_grid_pin() -> str:
    report = SweepRunner(quick_grid(SEEDS), jobs=1).run()
    return _sha(report.deterministic_json())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", REGISTRY_SCENARIOS)
def test_registry_scenario_produces_the_same_bytes(name, seed, golden):
    assert scenario_pin(name, seed) == golden["scenarios"][name][str(seed)]


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_wide_region_produces_the_same_bytes(name, golden):
    assert region_pin(name) == golden["regions"][name]


def test_quick_grid_sweep_produces_the_same_bytes(golden):
    assert quick_grid_pin() == golden["quick_grid_sha256"]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "scenarios": {
                    name: {str(seed): scenario_pin(name, seed) for seed in SEEDS}
                    for name in REGISTRY_SCENARIOS
                },
                "regions": {name: region_pin(name) for name in sorted(REGIONS)},
                "quick_grid_sha256": quick_grid_pin(),
            },
            indent=1,
        )
    )
