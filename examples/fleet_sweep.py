"""Scenario sweep: the fleet simulator as a distribution instrument.

One fleet run is an anecdote; provisioning questions (Sections 4 and 7
of the paper) are about *distributions* — how do throughput, stalls,
and tail queue delays move across arrival seeds when the region gets
busier, or when a fault storm hits mid-window?

Part 1 uses the **scenario registry**: every registered fleet scenario
(`python -m repro.experiments list --kind fleet`) runs across three
seeds.  `fan_out`, the engine under `SweepRunner`, maps
`run_scenario_spec` over those runs across worker processes, and a
`SweepReport` makes each registry entry one cell: its percentile
surfaces span the three seeds.

Part 2 builds a custom `ScenarioGrid` (3 workload mixes x 2 fault
schedules x 6 seeds = 36 fleet simulations), fans it across worker
processes with `SweepRunner`, and aggregates percentile surfaces per
grid cell.  The output table reads like the paper's fleet-level
figures: the busy mix saturates shared storage and drags p50
throughput down while the fault storm mostly widens the stall tail.

Run:  python examples/fleet_sweep.py
"""

import time

from repro.chaos.faults import FaultEvent, FaultKind
from repro.experiments import (
    ScenarioGrid,
    SweepReport,
    SweepRunner,
    build_scenario,
    fan_out,
    list_scenarios,
    run_scenario_spec,
)
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

SEEDS = tuple(range(6))


def registry_tour() -> None:
    """Every registered fleet scenario, three seeds each: one cell per
    registry entry."""
    batch = [
        entry.build(seed)
        for entry in list_scenarios(kind="fleet")
        for seed in (0, 1, 2)
    ]
    start = time.perf_counter()
    report = SweepReport(
        results=fan_out(batch, run_scenario_spec, jobs=4),
        grid_name="registry-fleet-tour",
        total_wall_s=time.perf_counter() - start,
        jobs=4,
    )
    print(report.render())
    print()


def custom_grid_sweep() -> None:
    """A hand-built mix x faults grid with percentile surfaces."""
    region = FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=40, n_ssd_cache_nodes=4),
        n_trainer_nodes=32,
        pool=PoolConfig(max_workers=2_000),
    )
    storm = (
        FaultEvent(1_800, FaultKind.WORKER_CRASH, magnitude=6),
        FaultEvent(3_600, FaultKind.DEGRADE_STORAGE, magnitude=0.4),
        FaultEvent(5_400, FaultKind.RESTORE_STORAGE),
    )
    grid = ScenarioGrid(
        seeds=SEEDS,
        mixes=(
            ("calm", FleetMix(exploratory_per_day=24.0)),
            ("default", FleetMix()),
            ("busy", FleetMix(exploratory_per_day=120.0, burst_probability=0.4)),
        ),
        configs=(("region", region),),
        faults=(("none", ()), ("storm", storm)),
        duration_s=3.0 * 3600,
    )
    print(
        f"grid: {len(grid)} scenarios "
        f"({len(grid.mixes)} mixes x {len(grid.faults)} fault plans x "
        f"{len(grid.seeds)} seeds)\n"
    )

    report = SweepRunner(grid, jobs=4).run(grid_name="mix-x-faults")
    print(report.render())

    # Surfaces are plain dicts — ready for plotting or regression gates.
    stall = report.surface("mean_stall_fraction")
    print("\np90 stall fraction by cell:")
    for cell, entry in stall.items():
        shown = "-" if entry["p90"] != entry["p90"] else f"{entry['p90']:.1%}"
        print(f"  {cell:24s} {shown}")


def main() -> None:
    registry_tour()
    custom_grid_sweep()

    # Spot-check the registry one level deeper: a single scenario is
    # one call, and its report speaks the shared telemetry schema.
    report = build_scenario("fleet/storm", seed=0).run()
    print(
        "\nfleet/storm seed0 metrics:",
        {k: round(v, 3) for k, v in list(report.metrics().items())[:4]},
    )


if __name__ == "__main__":
    main()
