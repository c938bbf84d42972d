"""``serving_burst``: the async serving plane under open-loop bursts.

The ``serving/bursty`` shape: ``ServingScenario(arrival_mix="bursty",
fetch_policy="retry")`` supplies the :class:`PlaneConfig`, and set-up
assembles table, filesystem and session spec from public constructors
the way ``ServingScenario.build_plane`` does (the smoke test holds the
two to the same report).  One unit is one ``ServingPlane.run()`` over a
fresh master: the same arrivals every time, so every report is the same.
As in the library scenario, the seed drives the arrival process and
nothing else; the table is the scenario's own (``table_seed``).

``max_retries`` is raised from the scenario's 3 so that the opening
burst, which arrives before the pools have scaled, is retried until
served instead of shed: admission, backoff and autoscaling stay hot and
no operation fails.
"""

from __future__ import annotations

from repro.dpp import DppWorker, ReplicatedMaster, SessionSpec, WorkerConfig
from repro.dwrf import EncodingOptions
from repro.serving import ServingPlane, ServingScenario
from repro.tectonic import TectonicFilesystem
from repro.transforms import FirstX, Logit, SigridHash, TransformDag
from repro.warehouse import (
    DatasetProfile,
    SampleGenerator,
    Table,
    partition_file_name,
    publish_table,
)

from .catalogue import SERVING
from .harness import UnitOutcome, digest_of
from .timing import TimedWorker


class ServingBurst:
    name = SERVING

    def __init__(self, seed: int, scale: float, scratch) -> None:
        self.scenario = ServingScenario(
            name="bench/serving_burst",
            seed=seed,
            arrival_mix="bursty",
            fetch_policy="retry",
            max_retries=10,
            n_requests=max(60, round(3_000 * scale)),
        )
        self.params = {
            key: value
            for key, value in self.scenario.params().items()
            if key != "seed"  # the run's input, not a parameter
        }

    def setup(self) -> None:
        scenario = self.scenario
        generator = SampleGenerator(
            DatasetProfile(
                n_dense=10,
                n_sparse=5,
                n_scored=1,
                avg_coverage=0.6,
                avg_sparse_length=5.0,
            ),
            seed=scenario.table_seed,
        )
        schema = generator.build_schema("serving_scenario")
        table = Table(schema)
        generator.populate_table(
            table,
            [f"p{index}" for index in range(scenario.n_partitions)],
            scenario.rows_per_partition,
        )
        self.filesystem = TectonicFilesystem(n_nodes=6)
        footers = publish_table(
            self.filesystem, table, EncodingOptions(stripe_rows=64)
        )
        dense = [s.feature_id for s in schema if s.name.startswith("dense_")][:3]
        sparse = [s.feature_id for s in schema if s.name.startswith("sparse_")][:2]
        dag = TransformDag()
        dag.add(900, Logit(dense[0]))
        dag.add(901, FirstX(sparse[0], 8))
        dag.add(902, SigridHash(901, 10_000))
        paths = {
            name: partition_file_name(table.name, name)
            for name in table.partition_names()
        }
        self.schema = schema
        self.footers = {paths[name]: footer for name, footer in footers.items()}
        self.spec = SessionSpec(
            table_name=table.name,
            partitions=tuple(paths.values()),
            projection=frozenset(dense + sparse),
            dag=dag,
            output_ids=(900, 902),
            batch_size=scenario.batch_size,
        )

    def build_plane(self, rec) -> ServingPlane:
        master = ReplicatedMaster(self.spec, self.footers)
        config = WorkerConfig()

        def factory(worker_id: str) -> DppWorker:
            args = (master, self.filesystem, self.schema, self.footers, config)
            if rec.enabled:
                return TimedWorker(rec, worker_id, *args)
            return DppWorker(worker_id, *args)

        return ServingPlane(self.scenario.plane_config(), master, factory)

    def run_unit(self, index: int, rec, watch) -> UnitOutcome:
        plane = self.build_plane(rec)
        reads_before, bytes_before = self.filesystem.total_io()
        job = f"run{index}"
        with watch, rec.span("harness.gap", job):
            with rec.span("serving.kernel_self", job):
                report = plane.run()
        reads_after, bytes_after = self.filesystem.total_io()

        fetch_queue = next(q for q in report.queues if q.name == "fetch")
        counts = {
            "serving.arrivals": report.arrivals,
            "serving.served": report.served,
            "serving.shed": report.shed,
            "serving.retries": report.retries,
            "serving.epochs": report.epochs,
            "serving.batches_produced": report.batches_produced,
            "serving.useful_share": report.served / (report.arrivals + report.retries),
            "serving.peak_fetch_queue_depth": fetch_queue.peak_depth,
            "serving.fetch_p50_ms": report.fetch_p50_ms,
            "serving.fetch_p99_ms": report.fetch_p99_ms,
            "serving.sim_duration_s": report.duration_s,
            "tectonic.fetch_calls": reads_after - reads_before,
            "tectonic.bytes_read": bytes_after - bytes_before,
        }
        lost = report.arrivals - report.served - report.shed
        return UnitOutcome(
            items=report.served,
            attempted=report.arrivals,
            failed=report.shed + abs(lost),
            bytes_moved=bytes_after - bytes_before,
            digest=digest_of(report.to_json().encode()),
            counts=counts,
            noisy_counts={"serving.host_s_per_sim_s": watch.wall_s / report.duration_s},
        )

    def probes(self, measured: dict) -> dict[str, float]:
        return {}
