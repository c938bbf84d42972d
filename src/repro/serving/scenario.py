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

from dataclasses import dataclass
from typing import Any, Mapping

from ..common.errors import ConfigError
from ..common.serialization import require_keys
from ..experiments.base import Scenario
from ..telemetry.tracer import Tracer
from .plane import PlaneConfig, ServingPlane
from .report import ServingReport

#: The plane knobs the scenario forwards verbatim into PlaneConfig.
_PLANE_FIELDS = (
    "arrival_mix",
    "rate_per_s",
    "n_requests",
    "fetch_policy",
    "max_retries",
    "retry_backoff_s",
    "backoff_multiplier",
    "fetch_queue_bound",
    "extract_queue_bound",
    "transform_queue_bound",
    "ready_queue_bound",
    "extract_workers",
    "transform_workers",
    "autoscale",
    "max_pool_workers",
    "control_period_s",
    "cycles_per_s",
)

_FLOAT_FIELDS = (
    "rate_per_s",
    "retry_backoff_s",
    "backoff_multiplier",
    "control_period_s",
    "cycles_per_s",
)

_INT_FIELDS = (
    "n_requests",
    "max_retries",
    "fetch_queue_bound",
    "extract_queue_bound",
    "transform_queue_bound",
    "ready_queue_bound",
    "extract_workers",
    "transform_workers",
    "max_pool_workers",
    "n_partitions",
    "rows_per_partition",
    "batch_size",
    "table_seed",
)


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
        return PlaneConfig(
            seed=self.seed,
            host=self.name,
            **{name: getattr(self, name) for name in _PLANE_FIELDS},
        )

    # -- execution -------------------------------------------------------------

    def build_plane(self, tracer: "Tracer | None" = None) -> ServingPlane:
        """A plane over a freshly published synthetic table."""
        from ..dpp.master import ReplicatedMaster
        from ..dpp.spec import SessionSpec
        from ..dpp.worker import DppWorker, WorkerConfig
        from ..dwrf import EncodingOptions
        from ..tectonic import TectonicFilesystem
        from ..transforms import FirstX, Logit, SigridHash, TransformDag
        from ..warehouse import (
            DatasetProfile,
            SampleGenerator,
            Table,
            publish_table,
        )
        from ..warehouse.publish import partition_file_name

        profile = DatasetProfile(
            n_dense=10,
            n_sparse=5,
            n_scored=1,
            avg_coverage=0.6,
            avg_sparse_length=5.0,
        )
        generator = SampleGenerator(profile, seed=self.table_seed)
        schema = generator.build_schema("serving_scenario")
        table = Table(schema)
        generator.populate_table(
            table,
            [f"p{index}" for index in range(self.n_partitions)],
            self.rows_per_partition,
        )
        filesystem = TectonicFilesystem(n_nodes=6)
        footers = publish_table(
            filesystem, table, EncodingOptions(stripe_rows=64)
        )
        dense = [s.feature_id for s in schema if s.name.startswith("dense_")][:3]
        sparse = [s.feature_id for s in schema if s.name.startswith("sparse_")][:2]
        dag = TransformDag()
        dag.add(900, Logit(dense[0]))
        dag.add(901, FirstX(sparse[0], 8))
        dag.add(902, SigridHash(901, 10_000))
        # Splits reference Tectonic paths, so the master's spec and
        # footer map are keyed by path (as DppSession does internally).
        spec = SessionSpec(
            table_name=table.name,
            partitions=tuple(
                partition_file_name(table.name, p)
                for p in table.partition_names()
            ),
            projection=frozenset(dense + sparse),
            dag=dag,
            output_ids=(900, 902),
            batch_size=self.batch_size,
        )
        footers_by_path = {
            partition_file_name(table.name, partition): footer
            for partition, footer in footers.items()
        }
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

    # -- serialization ---------------------------------------------------------

    def params(self) -> dict:
        out: dict = {"name": self.name, "seed": self.seed}
        for name in _PLANE_FIELDS:
            out[name] = getattr(self, name)
        for name in ("n_partitions", "rows_per_partition", "batch_size",
                     "table_seed"):
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "ServingScenario":
        require_keys(
            params,
            required=("name",),
            optional=(
                "seed",
                "n_partitions",
                "rows_per_partition",
                "batch_size",
                "table_seed",
                *_PLANE_FIELDS,
            ),
            context="serving scenario",
        )
        kwargs: dict = {"name": params["name"], "seed": int(params.get("seed", 0))}
        defaults = cls(name="defaults")
        for name in _FLOAT_FIELDS:
            kwargs[name] = float(params.get(name, getattr(defaults, name)))
        for name in _INT_FIELDS:
            kwargs[name] = int(params.get(name, getattr(defaults, name)))
        for name in ("arrival_mix", "fetch_policy"):
            kwargs[name] = str(params.get(name, getattr(defaults, name)))
        kwargs["autoscale"] = bool(params.get("autoscale", defaults.autoscale))
        return cls(**kwargs)


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
