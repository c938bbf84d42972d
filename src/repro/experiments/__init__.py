"""The unified experiment plane: one spec, registry, runner, telemetry.

The paper's value is fleet-scale *what-if* analysis; this package is
how the repo asks those questions.  Everything an experiment needs
speaks one contract:

* :class:`Scenario` (:mod:`base`) — picklable, JSON-round-trippable,
  seeded experiment descriptions with three first-class kinds
  (:mod:`scenarios`): :class:`FleetRegionScenario` (multi-tenant fleet
  regions), :class:`ChaosSessionScenario` (fault-injected executable
  DPP sessions), and :class:`DppTimelineScenario` (timed closed-loop
  autoscaler studies);
* the **registry** (:mod:`registry`) — :func:`register_scenario` /
  :func:`list_scenarios` / :func:`build_scenario` name the repo's
  experiment vocabulary, with the fleet mixes, chaos acceptance
  scenarios, and quick-grid cells built in;
* **one batch, the sweep** (:mod:`runner`) — :func:`fan_out` maps a
  function over items, inline or across the fork pool;
  :class:`SweepRunner` fans a fleet grid through it and aggregates
  percentile surfaces (:mod:`grid`, :mod:`report`); tracing is the
  ``trace=True`` argument of its ``run``.  One scenario of any kind is
  ``scenario.run(tracer)``;
* the **telemetry schema** — every run returns a
  :class:`~repro.common.serialization.ReportBase`, so all artifacts
  serialize, revive, and diff the same way;
* **one recovery path** (:mod:`journal`) — :class:`RunJournal`
  appends each completed chunk of cells, CRC-checked record by record,
  under one fsync, so a sweep killed by anything (SIGKILL, OOM, a
  worker that died, Ctrl-C) resumes byte-identically with ``sweep
  --resume``.  Nothing is retried in-run: every cell seeds itself, so
  a cell that raises is caught where it ran and quarantined (or, with
  ``--no-quarantine``, re-raised) and a dead worker ends the run.

``python -m repro.experiments {list,run,sweep}`` is the CLI face.
"""

from .base import Scenario, scenario_from_json, scenario_kinds
from .grid import ScenarioGrid, grid_from_json, quick_grid
from .journal import RunJournal, cell_identities, grid_hash, load_journal, spec_hash
from .registry import (
    RegistryEntry,
    build_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from .pool import auto_chunk_size, fork_available, run_chunked
from .report import CELL_METRICS, ScenarioResult, SweepReport
from .runner import (
    SweepRunner,
    fan_out,
    run_scenario_spec,
    run_scenario_spec_traced,
)
from .scenarios import (
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
    MAX_EVENTS_PER_SCENARIO,
)

__all__ = [
    "CELL_METRICS",
    "ChaosSessionScenario",
    "DppTimelineScenario",
    "FleetRegionScenario",
    "MAX_EVENTS_PER_SCENARIO",
    "RegistryEntry",
    "RunJournal",
    "Scenario",
    "ScenarioGrid",
    "ScenarioResult",
    "SweepReport",
    "SweepRunner",
    "auto_chunk_size",
    "build_scenario",
    "cell_identities",
    "fan_out",
    "fork_available",
    "get_scenario",
    "grid_hash",
    "load_journal",
    "run_chunked",
    "grid_from_json",
    "list_scenarios",
    "quick_grid",
    "register_scenario",
    "run_scenario_spec",
    "run_scenario_spec_traced",
    "scenario_from_json",
    "scenario_kinds",
    "spec_hash",
    "unregister_scenario",
]
