"""The experiment plane with the machinery left out.

A sweep is "map one function over a grid".  That comprehension is what
the runner — any ``jobs``, any chunk size, any journal, any
kill-and-resume history — must reproduce byte for byte.  No pool, no
arena, no journal.

:func:`naive_expand` is the grid's expansion order written out as four
nested loops — ``ScenarioGrid.expand``'s body until ``scenario_at``
became the one statement of that order.
"""

from repro.experiments import SweepReport, run_scenario_spec
from repro.experiments.scenarios import FleetRegionScenario


def naive_sweep(grid, grid_name="sweep"):
    return SweepReport(
        results=[run_scenario_spec(spec) for spec in naive_expand(grid)],
        grid_name=grid_name,
    )


def naive_expand(grid):
    scenarios = []
    for mix_name, mix in grid.mixes:
        for config_name, config in grid.configs:
            for fault_name, events in grid.faults:
                for seed in grid.seeds:
                    scenarios.append(
                        FleetRegionScenario(
                            name=(
                                f"{mix_name}/{config_name}/"
                                f"{fault_name}/seed{seed}"
                            ),
                            trace_seed=seed,
                            mix=mix,
                            config=config,
                            duration_s=grid.duration_s,
                            horizon_s=grid.horizon_s,
                            faults=events,
                        )
                    )
    return scenarios
