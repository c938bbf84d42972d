"""The named scenarios: one table from name to description and factory.

A name is namespaced ``<kind>/<name>`` and its first segment is the
scenario's kind.  ``build_scenario`` builds one for a seed; the CLI,
the examples and the tests iterate ``sorted(SCENARIOS)``.  The table
covers the repo's experiment vocabulary: the fleet sweep mixes
(quick-grid cells), the chaos acceptance scenarios, the timed DPP
control-loop studies and the serving load tests.
"""

from __future__ import annotations

from typing import Callable

from ..chaos.faults import FaultEvent, FaultKind
from ..common.errors import ConfigError
from .base import Scenario
from .grid import (
    QUICK_GRID_CONFIG_SPEC,
    QUICK_GRID_DURATION_S,
    QUICK_GRID_MIX_OVERRIDES,
    QUICK_GRID_STORM_ROWS,
)
from .scenarios import (
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
    config_from_spec,
    fault_events_from_rows,
    mix_from_overrides,
)

#: A factory builds the scenario for one seed.
ScenarioFactory = Callable[[int], Scenario]

#: The quick-grid fault storm, pinned to virtual-time seconds (derived
#: from the same rows the sweep quick grid uses).
_STORM = fault_events_from_rows(QUICK_GRID_STORM_ROWS, "at_s")


def _fleet(name: str, seed: int, mix_overrides: dict, faults=()) -> Scenario:
    return FleetRegionScenario(
        name=f"{name}/seed{seed}",
        trace_seed=seed,
        mix=mix_from_overrides(mix_overrides),
        config=config_from_spec(QUICK_GRID_CONFIG_SPEC),
        duration_s=QUICK_GRID_DURATION_S,
        faults=tuple(faults),
    )


def _serving(name: str, seed: int, **knobs) -> Scenario:
    # Imported per call: repro.serving imports this package, so a
    # module-level import would make the two packages' order matter.
    from ..serving.scenario import ServingScenario

    return ServingScenario(name=f"{name}/seed{seed}", seed=seed, **knobs)


#: name -> (description, factory).
SCENARIOS: dict[str, tuple[str, ScenarioFactory]] = {
    "fleet/default": (
        "default mix on the base 40-HDD region, 2 h trace",
        lambda seed: _fleet("fleet/default", seed, {}),
    ),
    "fleet/calm": (
        "light diurnal stream (24 exploratory jobs/day)",
        lambda seed: _fleet("fleet/calm", seed, {"exploratory_per_day": 24.0}),
    ),
    "fleet/busy": (
        "busy region (96 jobs/day, 40% bursts) — the quick-grid busy cell",
        lambda seed: _fleet("fleet/busy", seed, QUICK_GRID_MIX_OVERRIDES["busy"]),
    ),
    "fleet/storm": (
        "default mix under the quick-grid fault storm "
        "(crash x4, storage degrade/restore)",
        lambda seed: _fleet("fleet/storm", seed, {}, faults=_STORM),
    ),
    "chaos/worst-case": (
        "scripted worst case: mid-split crash, drain under load, "
        "failover, buffer-full crash",
        lambda seed: ChaosSessionScenario(
            name=f"chaos/worst-case/seed{seed}",
            seed=seed,
            n_workers=4,
            faults=(
                FaultEvent(1, FaultKind.WORKER_CRASH_MID_SPLIT),
                FaultEvent(2, FaultKind.WORKER_DRAIN),
                FaultEvent(3, FaultKind.MASTER_FAILOVER),
                FaultEvent(4, FaultKind.WORKER_CRASH),
            ),
        ),
    ),
    "chaos/restart-drill": (
        "two master restarts at 50% row sampling: checkpoint restore "
        "must replan the identical sampled split set",
        lambda seed: ChaosSessionScenario(
            name=f"chaos/restart-drill/seed{seed}",
            seed=seed,
            row_sample_rate=0.5,
            rows_per_partition=768,
            faults=(
                FaultEvent(1, FaultKind.MASTER_RESTART),
                FaultEvent(3, FaultKind.MASTER_RESTART),
            ),
        ),
    ),
    "chaos/backlogged-crash": (
        "slow trainers + crashes on backlogged buffers: the stranded-"
        "batch requeue scenario (at-least-once, never lost)",
        lambda seed: ChaosSessionScenario(
            name=f"chaos/backlogged-crash/seed{seed}",
            seed=seed,
            batch_size=24,
            faults=(
                FaultEvent(2, FaultKind.WORKER_CRASH),
                FaultEvent(4, FaultKind.WORKER_CRASH),
            ),
            client_batches_per_round=1,
        ),
    ),
    "chaos/seeded": (
        "five seed-drawn random faults over a 4-worker session",
        lambda seed: ChaosSessionScenario(
            name=f"chaos/seeded/seed{seed}",
            seed=seed,
            n_workers=4,
            seeded_faults=5,
            seeded_max_round=8,
        ),
    ),
    "serving/steady": (
        "steady open-loop fetch stream within capacity: shed policy, "
        "admission control engaged but rarely shedding",
        lambda seed: _serving("serving/steady", seed),
    ),
    "serving/bursty": (
        "bursty arrivals (synchronized trainer steps) under the "
        "retry-with-backoff fetch policy",
        lambda seed: _serving(
            "serving/bursty", seed, arrival_mix="bursty", fetch_policy="retry"
        ),
    ),
    "serving/overload": (
        "open-loop overload: arrivals outrun pipeline capacity, the "
        "fetch queue saturates, and admission control sheds",
        lambda seed: _serving(
            "serving/overload",
            seed,
            rate_per_s=2_000.0,
            fetch_queue_bound=32,
            max_pool_workers=4,
        ),
    ),
    "dpp/steady-state": (
        "right-sized fleet holds demand: stalls stay at zero",
        lambda seed: DppTimelineScenario(
            name=f"dpp/steady-state/seed{seed}", seed=seed, initial_workers=8
        ),
    ),
    "dpp/cold-start": (
        "one worker against full demand: scale-up convergence time",
        lambda seed: DppTimelineScenario(
            name=f"dpp/cold-start/seed{seed}", seed=seed, initial_workers=1
        ),
    ),
    "dpp/worker-churn": (
        "two churn waves kill workers mid-run; the controller relaunches",
        lambda seed: DppTimelineScenario(
            name=f"dpp/worker-churn/seed{seed}",
            seed=seed,
            initial_workers=8,
            worker_losses=((600.0, 4), (1_200.0, 3)),
        ),
    ),
}


def kind_of(name: str) -> str:
    """A scenario name's kind: its first segment."""
    return name.split("/", 1)[0]


def build_scenario(name: str, seed: int | None = None) -> Scenario:
    """The scenario *name* builds for *seed* (0 when None)."""
    entry = SCENARIOS.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        )
    return entry[1](0 if seed is None else seed)
