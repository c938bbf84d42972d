"""Scenario grids: the cartesian space a sweep explores.

A grid names its axes — seeds, workload mixes, fleet configs, fault
schedules — and :meth:`ScenarioGrid.scenario_at` maps a flat index to
one :class:`~repro.experiments.scenarios.FleetRegionScenario` per
cell×seed (:meth:`ScenarioGrid.expand` lists them all).  Scenarios are frozen dataclasses built from the library's
own frozen config types, so they pickle cleanly across process
boundaries and hash stably into per-scenario seeds.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from ..chaos.faults import FaultEvent
from ..common.errors import ConfigError
from ..fleet.jobs import FleetMix
from ..fleet.simulator import FleetConfig
from .scenarios import (
    FleetRegionScenario,
    config_from_spec,
    fault_events_from_rows,
    mix_from_overrides,
)


@dataclass(frozen=True)
class ScenarioGrid:
    """Axes of a sweep: seeds × mixes × configs × fault schedules.

    Each non-seed axis is a tuple of ``(name, value)`` pairs; the grid
    expands to ``len(mixes) * len(configs) * len(faults) * len(seeds)``
    scenarios named ``mix/config/faults/seedN``.
    """

    seeds: tuple[int, ...]
    mixes: tuple[tuple[str, FleetMix], ...]
    configs: tuple[tuple[str, FleetConfig], ...]
    faults: tuple[tuple[str, tuple[FaultEvent, ...]], ...] = (("none", ()),)
    duration_s: float = 4.0 * 3600
    horizon_s: float | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("grid needs at least one seed")
        if not self.mixes or not self.configs or not self.faults:
            raise ConfigError("every grid axis needs at least one entry")
        for axis in (self.mixes, self.configs, self.faults):
            names = [name for name, _ in axis]
            if len(set(names)) != len(names):
                raise ConfigError(f"duplicate axis names: {sorted(names)}")
        if self.duration_s <= 0:
            raise ConfigError("trace duration must be positive")

    def __len__(self) -> int:
        return (
            len(self.mixes) * len(self.configs) * len(self.faults) * len(self.seeds)
        )

    def scenario_at(self, index: int) -> FleetRegionScenario:
        """Cell *index* of the expansion: mixes outermost, then configs,
        then fault schedules, seeds innermost.  This is the one
        statement of the order — journals and reports both index
        cells by it."""
        if not 0 <= index < len(self):
            raise ConfigError(f"grid has no cell {index}")
        index, seed_index = divmod(index, len(self.seeds))
        index, fault_index = divmod(index, len(self.faults))
        mix_index, config_index = divmod(index, len(self.configs))
        mix_name, mix = self.mixes[mix_index]
        config_name, config = self.configs[config_index]
        fault_name, events = self.faults[fault_index]
        seed = self.seeds[seed_index]
        return FleetRegionScenario(
            name=f"{mix_name}/{config_name}/{fault_name}/seed{seed}",
            trace_seed=seed,
            mix=mix,
            config=config,
            duration_s=self.duration_s,
            horizon_s=self.horizon_s,
            faults=events,
        )

    def expand(self) -> list[FleetRegionScenario]:
        """All scenarios, in :meth:`scenario_at` order."""
        return [self.scenario_at(index) for index in range(len(self))]


# -- JSON grid specs -----------------------------------------------------------


def grid_from_json(source: str | pathlib.Path | dict) -> ScenarioGrid:
    """Parse a grid from a JSON file path, JSON text, or parsed dict.

    Schema (all sections optional except ``seeds``)::

        {
          "seeds": [0, 1, 2],
          "duration_s": 14400,
          "horizon_s": null,
          "mixes": {"default": {}, "busy": {"exploratory_per_day": 96}},
          "configs": {"base": {"n_hdd_nodes": 40, "n_trainer_nodes": 32}},
          "faults": {"none": [],
                     "storm": [{"kind": "worker_crash", "at_s": 3600,
                                "magnitude": 4}]}
        }
    """
    if isinstance(source, dict):
        payload = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            payload = json.loads(text)
        else:
            payload = json.loads(pathlib.Path(source).read_text())
    if "seeds" not in payload or not payload["seeds"]:
        raise ConfigError("grid spec needs a non-empty 'seeds' list")
    mixes = payload.get("mixes") or {"default": {}}
    configs = payload.get("configs") or {"base": {}}
    faults = payload.get("faults") or {"none": []}
    return ScenarioGrid(
        seeds=tuple(int(s) for s in payload["seeds"]),
        mixes=tuple(
            (name, mix_from_overrides(overrides)) for name, overrides in mixes.items()
        ),
        configs=tuple(
            (name, config_from_spec(spec)) for name, spec in configs.items()
        ),
        faults=tuple(
            (name, fault_events_from_rows(entries, "at_s"))
            for name, entries in faults.items()
        ),
        duration_s=float(payload.get("duration_s", 4.0 * 3600)),
        horizon_s=(
            float(payload["horizon_s"])
            if payload.get("horizon_s") is not None
            else None
        ),
    )


#: The quick-grid axes, shared with the registry's fleet entries so
#: ``fleet/busy`` / ``fleet/storm`` stay identical to the sweep cells
#: they mirror.
QUICK_GRID_DURATION_S = 2.0 * 3600
QUICK_GRID_CONFIG_SPEC = {"n_hdd_nodes": 40, "n_ssd_cache_nodes": 4}
QUICK_GRID_MIX_OVERRIDES = {
    "default": {},
    "busy": {"exploratory_per_day": 96.0, "burst_probability": 0.4},
}
QUICK_GRID_STORM_ROWS = [
    {"kind": "worker_crash", "at_s": 1800, "magnitude": 4},
    {"kind": "degrade_storage", "at_s": 3600, "magnitude": 0.5},
    {"kind": "restore_storage", "at_s": 5400},
]


def quick_grid(seeds: tuple[int, ...]) -> ScenarioGrid:
    """The built-in smoke grid: small region, two mixes, one fault storm."""
    return grid_from_json(
        {
            "seeds": list(seeds),
            "duration_s": QUICK_GRID_DURATION_S,
            "mixes": QUICK_GRID_MIX_OVERRIDES,
            "configs": {"base": QUICK_GRID_CONFIG_SPEC},
            "faults": {"none": [], "storm": QUICK_GRID_STORM_ROWS},
        }
    )
