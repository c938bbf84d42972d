"""The three first-class scenario kinds.

* :class:`FleetRegionScenario` (``kind="fleet"``) — a multi-tenant
  region: a seeded arrival trace from a :class:`~repro.fleet.jobs.FleetMix`
  replayed against one :class:`~repro.fleet.simulator.FleetSimulator`,
  optionally under a fleet-level fault storm.  This is the cell type
  sweeps expand to.
* :class:`ChaosSessionScenario` (``kind="chaos"``) — one executable DPP
  session (published synthetic table and all) driven through a scripted
  and/or seeded :class:`~repro.chaos.faults.FaultSchedule` by
  :class:`~repro.chaos.runner.ChaosRunner`, delivery invariants checked.
* :class:`DppTimelineScenario` (``kind="dpp"``) — the closed-loop timed
  simulation of Section 3.2.1: auto-scaler versus demand on virtual
  time, with optional worker-churn injections.

Every kind is a frozen dataclass (picklable), written as one JSON
document through the :mod:`repro.experiments.base` envelope, and fully
determined by its fields plus its seed.  Fleet mixes and configs are
written in the same JSON shorthand the grid parser reads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Mapping

from ..chaos.faults import (
    FLEET_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    seeded_schedule,
)
from ..common.errors import ConfigError, FormatError
from ..common.hashing import stable_hash
from ..common.serialization import ReportBase, record_row, require_keys
from ..fleet.allocator import PoolConfig
from ..fleet.broker import StorageFabric
from ..fleet.jobs import FleetMix, JobGenerator
from ..fleet.simulator import FleetConfig, FleetSimulator
from ..fleet.report import FleetReport
from .base import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.tracer import Tracer

#: Events per fleet scenario before a starved region is declared runaway.
MAX_EVENTS_PER_SCENARIO = 5_000_000


# -- fleet mix / config JSON shorthand -----------------------------------------


def mix_from_overrides(overrides: Mapping[str, Any]) -> FleetMix:
    """A FleetMix from default values plus JSON field overrides."""
    valid = {f.name for f in fields(FleetMix)} - {"models"}
    unknown = set(overrides) - valid
    if unknown:
        raise ConfigError(f"unknown FleetMix fields: {sorted(unknown)}")
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in overrides.items()
    }
    return replace(FleetMix(), **coerced)


def mix_to_overrides(mix: FleetMix) -> dict:
    """The inverse shorthand: fields differing from the default mix.

    The model catalog itself is not JSON-expressible; mixes drawing on
    a non-default model set can run and pickle but not archive.
    """
    default = FleetMix()
    if mix.models != default.models:
        raise FormatError(
            "fleet mix uses a non-default model catalog, which the JSON "
            "shorthand cannot express"
        )
    overrides: dict = {}
    for f in fields(FleetMix):
        if f.name == "models":
            continue
        value = getattr(mix, f.name)
        if value != getattr(default, f.name):
            overrides[f.name] = list(value) if isinstance(value, tuple) else value
    return overrides


#: The flat FleetConfig JSON shorthand's recognized keys.
CONFIG_SPEC_KEYS = (
    "n_hdd_nodes",
    "n_ssd_cache_nodes",
    "n_trainer_nodes",
    "max_workers",
    "power_budget_watts",
    "tick_s",
    "control_period_s",
    "buffer_capacity_s",
)


def config_from_spec(spec: Mapping[str, Any]) -> FleetConfig:
    """A FleetConfig from the flat JSON shorthand (see CONFIG_SPEC_KEYS)."""
    unknown = set(spec) - set(CONFIG_SPEC_KEYS)
    if unknown:
        raise ConfigError(f"unknown fleet-config fields: {sorted(unknown)}")
    fabric = StorageFabric(
        n_hdd_nodes=spec.get("n_hdd_nodes", 40),
        n_ssd_cache_nodes=spec.get("n_ssd_cache_nodes", 4),
    )
    extras = {
        key: spec[key]
        for key in ("power_budget_watts", "tick_s", "control_period_s", "buffer_capacity_s")
        if key in spec
    }
    return FleetConfig(
        fabric=fabric,
        n_trainer_nodes=spec.get("n_trainer_nodes", 32),
        pool=PoolConfig(max_workers=spec.get("max_workers", 2_000)),
        **extras,
    )


def config_to_spec(config: FleetConfig) -> dict:
    """The inverse shorthand, verified lossless by rebuilding.

    Configs customizing knobs outside the shorthand (trainer hardware,
    pool spin-up, autoscaler policy) can run and pickle but not
    archive; the rebuild check catches them with a clear error.
    """
    spec = {
        "n_hdd_nodes": config.fabric.n_hdd_nodes,
        "n_ssd_cache_nodes": config.fabric.n_ssd_cache_nodes,
        "n_trainer_nodes": config.n_trainer_nodes,
        "max_workers": config.pool.max_workers,
        "tick_s": config.tick_s,
        "control_period_s": config.control_period_s,
        "buffer_capacity_s": config.buffer_capacity_s,
    }
    if config.power_budget_watts is not None:
        spec["power_budget_watts"] = config.power_budget_watts
    if config_from_spec(spec) != config:
        raise FormatError(
            "fleet config uses knobs outside the JSON shorthand "
            f"({', '.join(CONFIG_SPEC_KEYS)}) and cannot be archived"
        )
    return spec


def fault_events_to_rows(
    events: tuple[FaultEvent, ...], time_key: str
) -> list[dict]:
    """FaultEvents as JSON rows (``time_key`` names the when-field)."""
    return [
        {
            time_key: int(e.round_index),
            "kind": e.kind.value,
            "magnitude": float(e.magnitude),
        }
        for e in events
    ]


def fault_events_from_rows(
    rows: list[Mapping[str, Any]], time_key: str
) -> tuple[FaultEvent, ...]:
    """FaultEvents from ``{time_key, "kind", "magnitude"}`` JSON rows."""
    events = []
    for row in rows:
        require_keys(
            row,
            required=(time_key, "kind"),
            optional=("magnitude",),
            context="fault event",
        )
        events.append(
            FaultEvent(
                round_index=int(row[time_key]),
                kind=FaultKind(row["kind"]),
                magnitude=float(row.get("magnitude", 1.0)),
            )
        )
    return tuple(events)


def synthetic_session(
    table_name: str,
    table_seed: int,
    n_partitions: int,
    rows_per_partition: int,
    batch_size: int,
    row_sample_rate: float = 1.0,
):
    """The synthetic table a session scenario reads, and the session spec.

    The table is seeded by *table_seed* (identical across runs and
    processes), has *n_partitions* × *rows_per_partition* rows and is
    published in 64-row stripes to a fresh six-node filesystem.  The
    spec projects three dense and two sparse features through the
    three-op DAG Logit → 900, FirstX → 901 → SigridHash → 902.  Returns
    ``(filesystem, schema, footers, spec)``, keyed by partition name.
    """
    from ..dpp import SessionSpec
    from ..dwrf import EncodingOptions
    from ..tectonic import TectonicFilesystem
    from ..transforms import FirstX, Logit, SigridHash, TransformDag
    from ..warehouse import DatasetProfile, SampleGenerator, Table, publish_table

    profile = DatasetProfile(
        n_dense=10,
        n_sparse=5,
        n_scored=1,
        avg_coverage=0.6,
        avg_sparse_length=5.0,
    )
    generator = SampleGenerator(profile, seed=table_seed)
    schema = generator.build_schema(table_name)
    table = Table(schema)
    generator.populate_table(
        table, [f"p{index}" for index in range(n_partitions)], rows_per_partition
    )
    filesystem = TectonicFilesystem(n_nodes=6)
    footers = publish_table(filesystem, table, EncodingOptions(stripe_rows=64))
    dense = [s.feature_id for s in schema if s.name.startswith("dense_")][:3]
    sparse = [s.feature_id for s in schema if s.name.startswith("sparse_")][:2]
    dag = TransformDag()
    dag.add(900, Logit(dense[0]))
    dag.add(901, FirstX(sparse[0], 8))
    dag.add(902, SigridHash(901, 10_000))
    spec = SessionSpec(
        table_name=table.name,
        partitions=tuple(table.partition_names()),
        projection=frozenset(dense + sparse),
        dag=dag,
        output_ids=(900, 902),
        batch_size=batch_size,
        row_sample_rate=row_sample_rate,
    )
    return filesystem, schema, footers, spec


# -- fleet regions -------------------------------------------------------------


@dataclass(frozen=True)
class FleetRegionScenario(Scenario):
    """One fully-resolved, picklable fleet-region experiment.

    ``trace_seed`` drives the job-arrival trace; ``fault_seed`` (derived
    stably from the scenario name and trace seed) varies fault victim
    *targeting* only — the runner rotates the round-robin victim order
    by it — so two cells sharing a mix and seed replay the *same*
    arrivals under different fault storms: paired comparisons, not
    noise.
    """

    kind = "fleet"

    name: str
    trace_seed: int
    mix: FleetMix
    config: FleetConfig
    duration_s: float
    horizon_s: float | None = None
    faults: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ConfigError("scenario duration must be positive")
        unsupported = {f.kind for f in self.faults} - FLEET_FAULT_KINDS
        if unsupported:
            raise ConfigError(
                "fleet scenarios support "
                f"{sorted(k.value for k in FLEET_FAULT_KINDS)}; "
                f"got {sorted(k.value for k in unsupported)}"
            )

    @property
    def seed(self) -> int:
        return self.trace_seed

    @property
    def fault_seed(self) -> int:
        """Deterministic victim-selection seed for this scenario."""
        return stable_hash(self.name, self.trace_seed) & 0x7FFFFFFF

    @property
    def cell(self) -> str:
        """The grid cell (scenario name without the seed axis)."""
        return self.name.rsplit("/seed", 1)[0]

    # -- execution -------------------------------------------------------------

    def build(self, tracer: "Tracer | None" = None) -> FleetSimulator | None:
        """A simulator loaded with this scenario's trace and faults.

        ``None`` for the legal empty cell: a sparse mix over a short
        window can draw zero arrivals for some seed.
        """
        jobs = JobGenerator(self.mix, seed=self.trace_seed).generate(
            self.duration_s
        )
        if not jobs:
            return None
        simulator = FleetSimulator(self.config, jobs, tracer=tracer)
        if self.faults:
            # Victim selection round-robins over the trace's job ids,
            # rotated by the stable fault seed so different cells
            # sharing a trace target different victims.
            from ..chaos.runner import schedule_fleet_faults

            job_ids = [j.job_id for j in jobs]
            offset = self.fault_seed % len(job_ids)
            schedule_fleet_faults(
                simulator,
                list(self.faults),
                job_ids=job_ids[offset:] + job_ids[:offset],
            )
        return simulator

    def run(self, tracer: "Tracer | None" = None) -> FleetReport:
        """Run the region to completion (or horizon); full fleet report.
        A *tracer* records tick phases and job lifecycles."""
        simulator = self.build(tracer=tracer)
        if simulator is None:
            return FleetReport(
                outcomes=[],
                samples=[],
                storage_bandwidth_bytes_per_s=self.config.fabric.total_bandwidth,
            )
        return simulator.run(
            horizon_s=self.horizon_s, max_events=MAX_EVENTS_PER_SCENARIO
        )

    # -- serialization ---------------------------------------------------------

    def params(self) -> dict:
        return record_row(
            self,
            mix=mix_to_overrides,
            config=config_to_spec,
            faults=lambda faults: fault_events_to_rows(faults, "at_s"),
        )


# -- chaos sessions ------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSessionScenario(Scenario):
    """One executable DPP session driven through a fault schedule.

    Self-contained: :meth:`run` publishes a synthetic table (seeded by
    ``table_seed``, so the data is identical across runs and processes),
    builds a session over it, then drives it with
    :class:`~repro.chaos.runner.ChaosRunner` under the scripted
    ``faults`` plus — when ``seeded_faults`` > 0 — a reproducible
    random schedule drawn from ``seed``.  ``seed`` also drives fault
    victim selection.
    """

    kind = "chaos"

    name: str
    seed: int = 0
    n_workers: int = 3
    n_clients: int = 2
    n_partitions: int = 2
    rows_per_partition: int = 256
    batch_size: int = 64
    row_sample_rate: float = 1.0
    table_seed: int = 7
    faults: tuple[FaultEvent, ...] = ()
    seeded_faults: int = 0
    seeded_max_round: int = 8
    client_batches_per_round: int | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.n_clients < 1:
            raise ConfigError("chaos session needs workers and clients")
        if self.n_partitions < 1 or self.rows_per_partition < 1:
            raise ConfigError("chaos session needs a non-empty table")
        if self.seeded_faults < 0:
            raise ConfigError("seeded fault count cannot be negative")

    # -- execution -------------------------------------------------------------

    def build_session(self):
        """A fresh session over a freshly published synthetic table."""
        from ..dpp import DppSession

        filesystem, schema, footers, spec = synthetic_session(
            "chaos_scenario",
            self.table_seed,
            self.n_partitions,
            self.rows_per_partition,
            self.batch_size,
            self.row_sample_rate,
        )
        return DppSession(
            spec,
            filesystem,
            schema,
            footers,
            n_workers=self.n_workers,
            n_clients=self.n_clients,
        )

    def schedule(self) -> FaultSchedule:
        """The full fault schedule: scripted events plus the seeded draw."""
        events = list(self.faults)
        if self.seeded_faults:
            events.extend(
                seeded_schedule(
                    self.seed,
                    n_faults=self.seeded_faults,
                    max_round=self.seeded_max_round,
                ).events
            )
        return FaultSchedule(events)

    def run(self, tracer: "Tracer | None" = None) -> ReportBase:
        """Drive the session through its schedule.  A *tracer* records
        rounds, faults, and the split lifecycle (time axis: the round
        index)."""
        from ..chaos.runner import ChaosRunner

        runner = ChaosRunner(
            self.build_session(),
            self.schedule(),
            scenario=self.name,
            seed=self.seed,
            client_batches_per_round=self.client_batches_per_round,
            tracer=tracer,
        )
        return runner.run()

    # -- serialization ---------------------------------------------------------

    def params(self) -> dict:
        return record_row(
            self, faults=lambda faults: fault_events_to_rows(faults, "round")
        )


# -- timed DPP simulations -----------------------------------------------------


@dataclass(frozen=True)
class DppTimelineScenario(Scenario):
    """A closed-loop timed DPP simulation: auto-scaler versus demand.

    The fluid model is fully deterministic; ``seed`` is carried for the
    protocol (and recorded in artifacts) but draws nothing.
    ``worker_losses`` injects chaos-plane churn: at each ``(time_s,
    count)`` the named number of live workers dies instantly and the
    controller must recover.
    """

    kind = "dpp"

    name: str
    seed: int = 0
    worker_batches_per_s: float = 10.0
    trainer_batches_per_s: float = 60.0
    initial_workers: int = 2
    duration_s: float = 1_800.0
    worker_spinup_s: float = 30.0
    controller_period_s: float = 10.0
    tick_s: float = 1.0
    max_workers: int = 64
    worker_losses: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ConfigError("scenario duration must be positive")
        if any(when < 0 or count < 1 for when, count in self.worker_losses):
            raise ConfigError("worker losses need time >= 0 and count >= 1")

    # -- execution -------------------------------------------------------------

    def run(self, tracer: "Tracer | None" = None) -> ReportBase:
        """Run the closed loop for ``duration_s``.  A *tracer* records
        buffer/fleet counters and scaling decisions on the simulation's
        virtual clock."""
        from ..dpp.autoscaler import AutoscalerConfig
        from ..dpp.simulation import SimulationConfig, TimedDppSimulation

        config = SimulationConfig(
            worker_batches_per_s=self.worker_batches_per_s,
            trainer_batches_per_s=self.trainer_batches_per_s,
            initial_workers=self.initial_workers,
            worker_spinup_s=self.worker_spinup_s,
            controller_period_s=self.controller_period_s,
            tick_s=self.tick_s,
            autoscaler=AutoscalerConfig(max_workers=self.max_workers),
        )
        simulation = TimedDppSimulation(config, tracer=tracer)
        for when, count in self.worker_losses:
            simulation.clock.schedule_at(
                when, lambda count=count: simulation.inject_worker_loss(count)
            )
        return simulation.run(self.duration_s)

    # -- serialization ---------------------------------------------------------

    def params(self) -> dict:
        return record_row(
            self,
            worker_losses=lambda losses: [[when, count] for when, count in losses],
        )
