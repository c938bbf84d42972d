"""The serving scenario kind: an open-loop load test as an experiment.

:class:`ServingScenario` (``kind="serving"``) publishes a synthetic
table (seeded, so identical across runs and processes), wires a
replicated DPP master and role-split worker pools into a
:class:`~repro.serving.plane.ServingPlane`, and drives the configured
open-loop trainer fetch stream against it.  Like every scenario kind it
is a frozen dataclass, picklable, JSON-round-trippable, and fully
determined by its fields plus ``seed`` — the serving report and trace
are byte-identical across serial and pooled execution.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..common.errors import ConfigError
from ..experiments.base import Scenario
from ..telemetry.tracer import Tracer
from .plane import PlaneConfig, ServingPlane
from .report import ServingReport


@dataclass(frozen=True)
class ServingScenario(Scenario):
    """One open-loop serving load test over a synthetic table.

    ``seed`` drives the arrival process (and nothing else); the table
    contents come from ``table_seed`` so workload comparisons across
    seeds read the same data.  The request-ID base derives from the
    scenario name via :func:`~repro.datagen.serving.request_id_base`,
    sharing the logged-traffic ID space.
    """

    kind = "serving"

    name: str
    seed: int = 0
    arrival_mix: str = "steady"
    rate_per_s: float = 200.0
    n_requests: int = 2_000
    fetch_policy: str = "shed"
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    fetch_queue_bound: int = 64
    extract_queue_bound: int = 8
    transform_queue_bound: int = 16
    ready_queue_bound: int = 32
    extract_workers: int = 2
    transform_workers: int = 1
    autoscale: bool = True
    max_pool_workers: int = 8
    control_period_s: float = 1.0
    cycles_per_s: float = 5.0e6
    n_partitions: int = 2
    rows_per_partition: int = 256
    batch_size: int = 64
    table_seed: int = 7

    def __post_init__(self) -> None:
        if self.n_partitions < 1 or self.rows_per_partition < 1:
            raise ConfigError("serving scenario needs a non-empty table")
        # Delegate the plane-knob validation to PlaneConfig.
        self.plane_config()

    def plane_config(self) -> PlaneConfig:
        """The plane knobs: every PlaneConfig field this scenario also
        has, with the scenario's name as the host."""
        knobs = {field.name for field in fields(self)}
        return PlaneConfig(
            host=self.name,
            **{
                field.name: getattr(self, field.name)
                for field in fields(PlaneConfig)
                if field.name in knobs
            },
        )

    # -- execution -------------------------------------------------------------

    def build_plane(self, tracer: "Tracer | None" = None) -> ServingPlane:
        """A plane over a freshly published synthetic table."""
        from ..dpp.master import ReplicatedMaster
        from ..dpp.worker import DppWorker, WorkerConfig
        from ..experiments.scenarios import synthetic_session
        from ..warehouse.publish import partition_file_name

        filesystem, schema, footers, spec = synthetic_session(
            "serving_scenario",
            self.table_seed,
            self.n_partitions,
            self.rows_per_partition,
            self.batch_size,
        )
        # Splits reference Tectonic paths, so the master's spec and
        # footer map are keyed by path (as DppSession does internally).
        paths = {
            partition: partition_file_name(spec.table_name, partition)
            for partition in spec.partitions
        }
        spec = replace(spec, partitions=tuple(paths.values()))
        footers_by_path = {paths[name]: footer for name, footer in footers.items()}
        master = ReplicatedMaster(spec, footers_by_path)
        worker_config = WorkerConfig()

        def factory(worker_id: str) -> DppWorker:
            return DppWorker(
                worker_id,
                master,
                filesystem,
                schema,
                footers_by_path,
                config=worker_config,
            )

        return ServingPlane(
            self.plane_config(), master, factory, tracer=tracer
        )

    def run(self, tracer: "Tracer | None" = None) -> ServingReport:
        """Run the load test.  A *tracer* records per-item spans,
        queue-depth gauges, and admission-control decisions in virtual
        time."""
        return self.build_plane(tracer).run()


def _register_builtin_entries() -> None:
    """Register the serving catalog entries (runs once at import).

    Lives here rather than in :mod:`repro.experiments.registry` so the
    class is guaranteed to exist before registration regardless of
    whether ``repro.serving`` or ``repro.experiments`` is imported
    first — the registry imports this module for its side effect.
    """
    from ..experiments.registry import register_scenario

    register_scenario(
        "serving/steady",
        "serving",
        "steady open-loop fetch stream within capacity: shed policy, "
        "admission control engaged but rarely shedding",
        lambda seed: ServingScenario(
            name=f"serving/steady/seed{seed}",
            seed=seed,
        ),
    )
    register_scenario(
        "serving/bursty",
        "serving",
        "bursty arrivals (synchronized trainer steps) under the "
        "retry-with-backoff fetch policy",
        lambda seed: ServingScenario(
            name=f"serving/bursty/seed{seed}",
            seed=seed,
            arrival_mix="bursty",
            fetch_policy="retry",
        ),
    )
    register_scenario(
        "serving/overload",
        "serving",
        "open-loop overload: arrivals outrun pipeline capacity, the "
        "fetch queue saturates, and admission control sheds",
        lambda seed: ServingScenario(
            name=f"serving/overload/seed{seed}",
            seed=seed,
            rate_per_s=2_000.0,
            fetch_queue_bound=32,
            max_pool_workers=4,
        ),
    )


_register_builtin_entries()
