"""``ingest_write``: serving log → join → partition → DWRF → Tectonic.

One unit is one round: ``requests`` serving requests logged through a
Scribe daemon, window-joined with their outcome events, drained into
the round's dated partition, encoded as a FLATTENED DWRF file and
stored, sealed, in one long-lived :class:`TectonicFilesystem`; consumed
logs are then trimmed and the published partition dropped.  Every round
replays the same seeded requests under the next partition date, so the
rows, the stored bytes and every count are identical from round to round
and depend on the seed alone.

The table schema (per-feature coverage and sparse length) is a frozen
parameter, drawn once from ``schema_seed``; the run's seed draws the
feature values and the outcome events.  A schema per seed moves stored
bytes per row by a tenth from seed to seed, which no bound survives.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datagen import (
    EVENTS_CATEGORY,
    FEATURES_CATEGORY,
    LABELED_CATEGORY,
    BatchPartitioner,
    Scribe,
    ScribeDaemon,
    ServingSimulator,
    StreamingJoiner,
)
from repro.dwrf import DwrfReader, EncodingOptions, FileLayout
from repro.dwrf.encoding import seal, unseal
from repro.tectonic import TectonicFilesystem
from repro.warehouse import SampleGenerator, Table, partition_file_name
from repro.warehouse.publish import encode_table, store_files
from repro.workloads import RM1, build_mini_dataset

from .catalogue import INGEST
from .harness import UnitOutcome, digest_of

RATE_PER_S = 100.0
PROBE_BYTES = 4 * 1024 * 1024


class IngestWrite:
    name = INGEST

    def __init__(self, seed: int, scale: float, scratch) -> None:
        self.seed = seed
        self.params = {
            "model": "RM1",
            "schema_seed": 0,
            "requests_per_round": max(40, round(4_000 * scale)),
            "rate_per_s": RATE_PER_S,
            "stripe_rows": 1_000,
            "layout": "flattened",
            "tectonic_nodes": 6,
            "probe_bytes": max(4_096, round(PROBE_BYTES * scale)),
        }
        self.requests = self.params["requests_per_round"]
        #: One round fills exactly one partition, and unjoined features
        #: expire one period after it closes.
        self.period_s = self.requests / RATE_PER_S
        self.options = EncodingOptions(
            layout=FileLayout.FLATTENED, stripe_rows=self.params["stripe_rows"]
        )

    def setup(self) -> None:
        self.filesystem = TectonicFilesystem(n_nodes=self.params["tectonic_nodes"])
        dataset = build_mini_dataset(RM1, [], 0, self.params["schema_seed"])
        self.schema = dataset.schema
        self.profile = dataset.generator.profile

    def run_unit(self, index: int, rec, watch) -> UnitOutcome:
        scribe = Scribe()
        serving = ServingSimulator(
            self.schema,
            # A fresh generator per round: the same seeded requests again.
            SampleGenerator(self.profile, seed=self.seed),
            ScribeDaemon("web000", scribe),
            seed=self.seed,
        )
        joiner = StreamingJoiner(
            scribe, FEATURES_CATEGORY, EVENTS_CATEGORY, join_window_s=self.period_s
        )
        table = Table(self.schema)
        partitioner = BatchPartitioner(
            scribe, table, partition_period_s=self.period_s
        )
        filesystem = self.filesystem
        round_start = index * self.period_s
        job = f"round{index}"

        with watch, rec.span("harness.gap", job):
            with rec.span("datagen.serve", job):
                serving.serve_many(self.requests, round_start, RATE_PER_S)
            with rec.span("datagen.join", job):
                joiner.run_once(now=round_start + 2.0 * self.period_s)
            with rec.span("datagen.partition", job):
                partitioner.run_once()
            with rec.span("dwrf.encode", job):
                files = encode_table(table, self.options)
            with rec.span("tectonic.store", job):
                footers = store_files(filesystem, table.name, files)
            with rec.span("warehouse.reclaim", job):
                published = {name: table.partition(name) for name in footers}
                for name in footers:
                    table.drop_partition(name)
                for category in (FEATURES_CATEGORY, EVENTS_CATEGORY, LABELED_CATEGORY):
                    stream = scribe.category(category)
                    stream.trim(stream.head_lsn)

        stats = joiner.stats
        stored_rows = sum(footer.row_count for footer in footers.values())
        stored = [
            filesystem.file(partition_file_name(table.name, name)) for name in footers
        ]
        failed = stats.joined - stored_rows
        if index == 0:  # read one partition per run back and compare rows
            failed += sum(
                self._rows_lost(table.name, name, footers[name], partition.rows)
                for name, partition in published.items()
            )
        counts = {
            "datagen.rows_served": stats.features_seen,
            "datagen.rows_joined": stats.joined,
            "datagen.rows_expired_unjoined": stats.expired_unjoined,
            "dwrf.bytes_encoded": sum(f.size for f in files.values()),
            "dwrf.stripes_written": sum(len(f.stripes) for f in footers.values()),
            "tectonic.bytes_stored": sum(f.length for f in stored),
            "tectonic.blocks_written": sum(len(f.blocks) for f in stored),
        }
        return UnitOutcome(
            items=stored_rows,
            attempted=stats.joined,
            failed=failed,
            bytes_moved=counts["tectonic.bytes_stored"],
            digest=digest_of(*(f.data for f in files.values())),
            counts=counts,
        )

    def _rows_lost(self, table_name, partition_name, footer, rows) -> int:
        """Rows of a stored partition that do not read back equal."""
        reader = DwrfReader(
            footer,
            self.filesystem.fetcher(partition_file_name(table_name, partition_name)),
        )
        decoded = list(reader.read_rows(self.schema))
        if len(decoded) != len(rows):
            return len(rows)
        return sum(
            not _round_trips(original, back) for original, back in zip(rows, decoded)
        )

    def probes(self, measured: dict) -> dict[str, float]:
        """Codec throughput on a seed-generated stream of narrow-range IDs."""
        rng = np.random.default_rng(self.seed)
        payload = (
            rng.integers(0, 5_000, size=self.params["probe_bytes"] // 4)
            .astype("<i4")
            .tobytes()
        )
        start = time.perf_counter()
        sealed = seal(payload)
        middle = time.perf_counter()
        opened = unseal(sealed)
        end = time.perf_counter()
        if opened != payload:
            raise AssertionError("seal/unseal probe did not round-trip")
        megabytes = len(payload) / 1e6
        return {
            "dwrf.seal_mb_per_s": megabytes / (middle - start),
            "dwrf.unseal_mb_per_s": megabytes / (end - middle),
        }


def _round_trips(original, decoded) -> bool:
    """Row equality through DWRF, which stores floats as float32."""

    def narrowed(weights):
        return {fid: [float(np.float32(w)) for w in ws] for fid, ws in weights.items()}

    return (
        decoded.label == original.label
        and decoded.dense
        == {fid: float(np.float32(v)) for fid, v in original.dense.items()}
        and decoded.sparse == original.sparse
        and decoded.scores == narrowed(original.scores)
    )
