"""``train_read``: training jobs re-reading stored partitions through DPP.

Set-up publishes one FLATTENED table per model (RM1, RM2, RM3
miniatures) into one filesystem; each model's schema, projection and DAG
are frozen parameters drawn from ``schema_seed``, and the run's seed
draws the rows (see ``ingest_write`` for why).  One unit is one cycle of three
training jobs, one per model: a fresh :class:`DppSession` with the
dataset's own projection, DAG and outputs, two workers taking one split
each per round, drained by a :class:`TrainingNode` until the master is
done and the buffers are empty.

The untraced job calls ``DppWorker.process_one_split``.  The traced job
recomposes that method from the worker's public phase API, the way the
serving plane does, with a span around each phase; the digest over the
delivered tensors must not notice the difference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.dpp import DppSession, SessionSpec
from repro.dwrf import EncodingOptions, FileLayout
from repro.tectonic import TectonicFilesystem
from repro.trainer import TrainingNode
from repro.warehouse import SampleGenerator, Table, publish_table
from repro.workloads import RM1, RM2, RM3, V100_TRAINER, build_mini_dataset

from .catalogue import TRAIN
from .harness import UnitOutcome
from .timing import TimedFilesystem, timed_batches

MODELS = (RM1, RM2, RM3)


@dataclass
class _Job:
    model: str
    spec: SessionSpec
    schema: object
    footers: dict
    rows: int


class _DigestingClient:
    """The trainer's client, with a CRC over every tensor it hands over."""

    def __init__(self, client, rec, job: str) -> None:
        self._client = client
        self._rec = rec
        self._job = job
        self.crc = 0

    def get_batch(self):
        with self._rec.span("dpp.load_serve", self._job):
            batch = self._client.get_batch()
        if batch is not None:
            with self._rec.span("harness.gap", self._job):
                crc = zlib.crc32(batch.labels, self.crc)
                for tensors in (
                    batch.dense,
                    batch.sparse_offsets,
                    batch.sparse_values,
                    batch.sparse_weights,
                ):
                    for fid in sorted(tensors):
                        crc = zlib.crc32(tensors[fid], crc)
                self.crc = crc
        return batch


class TrainRead:
    name = TRAIN

    def __init__(self, seed: int, scale: float, scratch) -> None:
        self.seed = seed
        self.params = {
            "models": [model.name for model in MODELS],
            "schema_seed": 0,
            "partitions": 2,
            "rows_per_partition": max(40, round(2_000 * scale)),
            "stripe_rows": 1_000,
            "layout": "flattened",
            "batch_size": 256,
            "coalesce_window": 1_310_720,
            "workers": 2,
            "tectonic_nodes": 6,
        }

    def setup(self) -> None:
        params = self.params
        self.filesystem = TectonicFilesystem(n_nodes=params["tectonic_nodes"])
        options = EncodingOptions(
            layout=FileLayout.FLATTENED, stripe_rows=params["stripe_rows"]
        )
        partitions = [f"p{i}" for i in range(params["partitions"])]
        self.jobs: list[_Job] = []
        for model in MODELS:
            dataset = build_mini_dataset(model, [], 0, params["schema_seed"])
            table = Table(dataset.schema)
            SampleGenerator(dataset.generator.profile, seed=self.seed).populate_table(
                table, partitions, params["rows_per_partition"]
            )
            footers = publish_table(self.filesystem, table, options)
            spec = SessionSpec(
                table_name=table.name,
                partitions=tuple(partitions),
                projection=dataset.projection,
                dag=dataset.dag,
                output_ids=dataset.output_ids,
                batch_size=params["batch_size"],
                coalesce_window=params["coalesce_window"],
            )
            self.jobs.append(
                _Job(
                    model.name,
                    spec,
                    dataset.schema,
                    footers,
                    table.total_rows(),
                )
            )  # the Table itself is freed here: only its files are read

    def run_unit(self, index: int, rec, watch) -> UnitOutcome:
        reads_before, bytes_before = self.filesystem.total_io()
        totals = dict.fromkeys(
            (
                "dpp.splits",
                "dpp.batches",
                "dpp.tensor_bytes",
                "dwrf.useful_bytes",
                "transforms.modelled_cycles",
                "trainer.steps",
                "trainer.stalled_polls",
            ),
            0,
        )
        samples = 0
        crc = 0
        with watch, rec.span("harness.gap", f"cycle{index}"):
            for job in self.jobs:
                session, node, client = self._run_job(job, rec, f"{job.model}#{index}")
                samples += node.progress.samples
                crc = zlib.crc32(client.crc.to_bytes(4, "big"), crc)
                workers = session.workers
                totals["dpp.splits"] += session.master.primary.completed_splits
                totals["dpp.batches"] += sum(w.stats.batches_produced for w in workers)
                totals["dpp.tensor_bytes"] += node.progress.bytes_ingested
                totals["dwrf.useful_bytes"] += sum(
                    w.io_trace.useful_bytes for w in workers
                )
                totals["transforms.modelled_cycles"] += sum(
                    w.stats.transform_report.cycles for w in workers
                )
                totals["trainer.steps"] += node.progress.steps
                totals["trainer.stalled_polls"] += node.progress.stalled_polls

        reads_after, bytes_after = self.filesystem.total_io()
        bytes_read = bytes_after - bytes_before
        totals["tectonic.fetch_calls"] = reads_after - reads_before
        totals["tectonic.bytes_read"] = bytes_read
        totals["dwrf.overread_share"] = 1.0 - totals["dwrf.useful_bytes"] / bytes_read
        attempted = sum(job.rows for job in self.jobs)
        return UnitOutcome(
            items=samples,
            attempted=attempted,
            failed=attempted - samples,
            bytes_moved=bytes_read,
            digest=f"{crc:08x}",
            counts=totals,
        )

    def _run_job(self, job: _Job, rec, label: str):
        filesystem = self.filesystem
        if rec.enabled:
            filesystem = TimedFilesystem(filesystem, rec, label)
        with rec.span("dpp.session_create", label):
            session = DppSession(
                job.spec,
                filesystem,
                job.schema,
                job.footers,
                n_workers=self.params["workers"],
            )
            client = _DigestingClient(session.clients[0], rec, label)
            node = TrainingNode(V100_TRAINER, client)
        master = session.master
        while True:
            for worker in session.workers:
                if not worker.wants_work:
                    continue
                if rec.enabled:
                    _process_one_split(worker, master, rec, label)
                else:
                    worker.process_one_split()
            with rec.span("trainer.step", label):
                node.train_until_exhausted()
            if master.done and not any(worker.buffer for worker in session.workers):
                return session, node, client

    def probes(self, measured: dict) -> dict[str, float]:
        return {}


def _process_one_split(worker, master, rec, label: str) -> None:
    """``DppWorker.process_one_split`` from its public phases, with spans."""
    with rec.span("dpp.split", label):
        split = master.request_split(worker.worker_id)
    if split is None:
        return
    batches = timed_batches(worker.extract_batches(split), rec, label)
    for sequence, batch in enumerate(batches):
        with rec.span("transforms.execute", label):
            worker.transform_batch(batch)
        with rec.span("dpp.tensorize", label):
            tensors = worker.tensorize(batch, split.split_id, sequence)
        with rec.span("dpp.load_serve", label):
            worker.deposit(tensors)
    with rec.span("dpp.split", label):
        master.complete_split(worker.worker_id, split.split_id)
