"""DPP Workers: the stateless extract-transform-load data plane.

Each worker pulls splits from the master, reads and decodes raw bytes
from Tectonic (extract), applies the session's transform DAG per
mini-batch (transform), and buffers ready tensors for clients to pull
(partial load) — Section 3.2.1.

Two real code paths model the in-memory-format ablation (Table 12, FM):

* row path — decode stripes to :class:`Row` maps, then convert to the
  columnar batch (the format change the paper calls out as costly);
* flatmap path — decode DWRF streams directly into columnar batches,
  skipping row materialization.

Both arms sit on one decode, :meth:`DwrfReader.decode_stripe` (fetch →
verify → unseal → flat arrays, planned once per reader and stripe): the
row arm cuts its arrays into rows inside ``DwrfReader.read_stripe``,
the flatmap arm wraps them as columns here.  A worker keeps one reader
per file.

Beside its readers a worker keeps the flatmap of every stripe it has
been handed twice, and from the third hand-over on verifies the
stripe's reads instead of decoding them again.  Each piece the kept
stripe is cut into carries a holder for what the session DAG makes of
it: the first transform of the piece fills it, every later one under
the same plan attaches the held output columns and charges the held
cost report (:class:`DppWorker` says what that does and does not
change).  The memo has no size limit and no eviction: it holds at most
the decoded stripes this worker re-reads and their transformed pieces,
and lives and dies with the worker.

Resource usage is charged through an analytical cost model on top of
the real byte/value counts the extract path produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import DppError, WorkerFailure
from ..common.resources import ResourceUsage
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..dwrf.layout import FileFooter, FileLayout
from ..dwrf.reader import DwrfReader, IOTrace, ReadOptions
from ..tectonic.filesystem import TectonicFilesystem
from ..transforms.batch import DenseColumn, FeatureBatch, SparseColumn
from ..transforms.cost import CostReport, execute_with_cost
from ..warehouse.schema import FeatureType, TableSchema
from .master import DppMaster, ReplicatedMaster
from .spec import SessionSpec
from .split import Split
from .tensors import TensorBatch


@dataclass(frozen=True)
class ExtractCostModel:
    """Cycle and memory-traffic charges for the extract phase.

    Constants are relative calibration values.  ``conversion_*`` apply
    only on the row path — the columnar-to-row-to-columnar format
    change that in-memory flatmaps eliminate (Section 7.5).
    ``overhead_factor`` multiplies all extract+transform cycles unless
    localized optimizations (LTO/AutoFDO, null-check removal) are on.
    """

    cycles_per_compressed_byte: float = 2.2  # decrypt + decompress
    cycles_per_value: float = 62.5  # stream decode into typed values
    mem_bytes_per_value: float = 14.0
    conversion_cycles_per_value: float = 22.2
    conversion_mem_bytes_per_value: float = 26.0
    overhead_factor: float = 1.28


@dataclass(frozen=True)
class WorkerConfig:
    """Data-plane options for one worker fleet.

    ``in_memory_flatmap`` selects the direct columnar decode path (FM);
    ``localized_optimizations`` removes the build/runtime overhead
    factor (LO); ``buffer_batches`` bounds the tensor buffer ("a small
    buffer of tensors in each Worker's memory").
    """

    in_memory_flatmap: bool = True
    localized_optimizations: bool = True
    buffer_batches: int = 8
    extract_cost: ExtractCostModel = field(default_factory=ExtractCostModel)


@dataclass
class WorkerStats:
    """Counters the autoscaling controller collects from each worker."""

    splits_completed: int = 0
    rows_processed: int = 0
    batches_produced: int = 0
    batches_served: int = 0
    storage_rx_bytes: int = 0
    tensor_tx_bytes: int = 0
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    transform_report: CostReport = field(default_factory=CostReport)


class _Transformed:
    """What the session DAG made of one piece of a kept stripe: empty
    until a transform fills it (see :meth:`DppWorker.transform_batch`)."""

    __slots__ = ("plan", "columns", "report")

    def __init__(self) -> None:
        self.plan = None  # the dag.plan() it ran under
        self.columns: tuple = ()  # (output id, column) in attach order
        self.report: CostReport | None = None


class _KeptBatch(FeatureBatch):
    """A batch over a kept stripe's arrays.  ``transformed`` holds one
    holder per :meth:`DppWorker._rebatch` piece of it; a piece has one."""

    def __init__(self, labels, columns, transformed) -> None:
        super().__init__(labels, columns)
        self.transformed = transformed


def _freeze(columns) -> None:
    """Make every array of *columns* read-only.  They are write-once by
    contract (``transforms/batch.py``); a breach then raises instead of
    reaching the next read of a kept stripe."""
    for column in columns:
        for array in vars(column).values():
            if array is not None:
                array.flags.writeable = False


class DppWorker:
    """One stateless preprocessing worker.

    "Stateless" is a statement about the *modelled* worker: nothing it
    did before changes what a split costs, reads or yields, so the
    master can hand any split to any worker and a dead worker is
    replaced by requeuing its splits.  The host process does reuse
    work.  The paper's jobs re-read the same popular bytes (Section 5,
    Figure 7), and a master that begins another epoch hands a worker
    stripes it has already decoded; so the worker keeps the flatmap —
    labels, projected columns, value count — of every stripe it has
    been handed *twice*, and from the third hand-over on makes, charges
    and verifies the stripe's reads (:meth:`DwrfReader.verify_stripe`)
    and wraps the kept columns in a fresh batch instead of unsealing
    and decoding the same bytes again.  Storage bytes, replica routing,
    ``IOTrace``, extract cycles and ``stats`` are those of a decoded
    read, and damaged bytes are refused as a decoding read refuses them.

    The same holds one phase later.  Every op is deterministic and the
    session plan is fixed, so what the DAG makes of a piece of a kept
    stripe is a function of the piece.  Each piece a kept stripe is cut
    into (:meth:`_rebatch`) has a holder, and a batch yielded from a
    kept stripe carries its piece's holder — through the serving
    plane's queue to whichever worker transforms it.  The first
    :meth:`transform_batch` under the session plan fills the holder;
    every later one attaches the held output columns and charges the
    held ``CostReport``, so transform cycles, ``stats`` and every report
    are those of an execution.

    The rule is read off the input, not set: a stripe read once is not
    kept (a single-pass job keeps nothing), and a stripe with a needed
    stream that carries no checksum is never kept, because nothing
    would prove its bytes unchanged.  What is kept is what the second
    read's decode and transforms produced anyway (≈5 KB of flatmap and
    ≈4 KB of output columns for a 64-row stripe of five projected
    features and three ops), read-only, until the worker fails, retires
    or is dropped.
    """

    def __init__(
        self,
        worker_id: str,
        master: DppMaster | ReplicatedMaster,
        filesystem: TectonicFilesystem,
        schema: TableSchema,
        footers: dict[str, FileFooter],
        config: WorkerConfig | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.master = master
        self.filesystem = filesystem
        self.schema = schema
        self.footers = footers
        self.config = config or WorkerConfig()
        # On startup each worker pulls the session's transform module
        # from the master (Section 3.2.1).
        self.spec: SessionSpec = master.primary.spec if isinstance(
            master, ReplicatedMaster
        ) else master.spec
        self.buffer: deque[TensorBatch] = deque()
        self._buffered_bytes = 0  # sum of nbytes() over self.buffer
        self.stats = WorkerStats()
        self.io_trace = IOTrace()
        self._readers: dict[str, DwrfReader] = {}
        # (reader, stripe) -> None after a first read of a checksummed
        # stripe, its (labels, columns, value count, one holder per
        # piece) after a second.
        self._flatmaps: dict[
            tuple[DwrfReader, int],
            tuple[np.ndarray, dict, int, tuple[_Transformed, ...]] | None,
        ] = {}
        self._projection_order = sorted(self.spec.projection)
        self.alive = True
        self.draining = False
        self._crash_after_batches: int | None = None
        # Settable telemetry recorder (the owning session attaches it).
        self.tracer: Tracer = NULL_TRACER
        master.register_worker(worker_id)

    # -- control -----------------------------------------------------------

    def fail(self) -> None:
        """Kill the worker (fault injection); master requeues its work.

        The buffer and the kept flatmaps die with the process.  Batches
        still buffered for already-COMPLETED splits are reported as
        *stranded* so the master reopens those splits — without this,
        completed-but-unserved data would silently never reach a
        trainer.
        """
        self.alive = False
        self.draining = False
        stranded = sorted(
            {batch.split_id for batch in self.buffer if batch.split_id is not None}
        )
        self.buffer.clear()
        self._buffered_bytes = 0
        self._flatmaps.clear()
        if self.tracer.enabled:
            self.tracer.instant(
                "worker.fail", actor=self.worker_id, stranded=len(stranded)
            )
        self.master.worker_failed(self.worker_id, stranded_split_ids=stranded)

    def drain(self) -> None:
        """Begin a graceful drain: stop pulling splits, keep serving.

        The worker retires (see :meth:`retire`) once clients have
        emptied its buffer, so a drain never strands delivered work —
        the fix for scale-down losing completed batches.
        """
        self.draining = True

    def retire(self) -> None:
        """Finish a graceful drain once the buffer is empty."""
        if self.buffer:
            raise DppError(
                f"worker {self.worker_id} cannot retire with "
                f"{len(self.buffer)} buffered batches"
            )
        self.alive = False
        self.draining = False
        self._flatmaps.clear()
        self.master.worker_failed(self.worker_id)

    def inject_crash(self, after_batches: int = 1) -> None:
        """Arm a mid-split crash: the worker dies partway through its
        next split, after loading *after_batches* tensor batches —
        chaos-plane fault injection for the requeue path."""
        if after_batches < 0:
            raise DppError("after_batches cannot be negative")
        self._crash_after_batches = after_batches

    @property
    def crash_armed(self) -> bool:
        """Whether a mid-split crash is pending — fault planners must
        count armed workers as dead-workers-walking."""
        return self._crash_after_batches is not None

    # -- main loop ----------------------------------------------------------

    def process_one_split(self) -> bool:
        """Fetch and fully process one split; False when none remain.

        A thin recomposition of the public phase API below
        (:meth:`extract_batches` → :meth:`transform_batch` →
        :meth:`_load`): the synchronous pump and the async serving
        plane drive the *same* phase methods, so their data planes
        cannot drift apart.
        """
        if not self.alive:
            raise WorkerFailure(f"worker {self.worker_id} is dead")
        split = self.master.request_split(self.worker_id)
        if split is None:
            return False
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.begin(
                "split.process", actor=self.worker_id, split_id=split.split_id
            )
        try:
            sequence = 0
            for batch in self.extract_batches(split):
                self.transform_batch(batch)
                self._load(batch, split.split_id, sequence)
                sequence += 1
                if (
                    self._crash_after_batches is not None
                    and sequence >= self._crash_after_batches
                ):
                    # Die mid-split: the split is still ASSIGNED, so fail()
                    # makes the master requeue it; its partial batches are
                    # discarded with the buffer.
                    self._crash_after_batches = None
                    self.fail()
                    return True
            self.master.complete_split(self.worker_id, split.split_id)
            self.stats.splits_completed += 1
            return True
        finally:
            if traced:
                tracer.end(actor=self.worker_id)

    # -- the non-blocking phase API ------------------------------------------
    #
    # Each pipeline phase is its own call so an external scheduler (the
    # asyncio serving plane) can run extraction and transformation on
    # *different* workers with queues in between, while the synchronous
    # pump composes them back into process_one_split unchanged.

    def extract_batches(self, split: Split):
        """Extract one split into mini-batches (a generator).

        Pure extract phase: decodes stripes, charges extract cost, and
        yields session-sized :class:`FeatureBatch` slices.  The caller
        owns split-protocol bookkeeping (``complete_split``) and what
        happens to each batch next.
        """
        return self._extract_split(split)

    def transform_batch(self, batch: FeatureBatch) -> CostReport:
        """Run the session DAG over one batch and charge its cost.

        A batch yielded from a kept stripe carries its piece's holder.
        The first call under the session's ``dag.plan()`` executes and
        fills it with that plan, the output columns (read-only) and the
        report; a later call under the same plan attaches those columns
        in the same order and charges the same report.  A new plan
        (``dag.add()``) executes again.  For such a batch the report
        returned is a copy: the held one is never handed out, so what
        a caller does to it cannot change a later charge.
        """
        dag = self.spec.dag
        if type(batch) is not _KeptBatch:
            report = execute_with_cost(dag, batch)
            self._charge_transform(report)
            return report
        (held,) = batch.transformed
        plan = dag.plan()
        columns = batch.columns
        if held.plan is plan:
            columns.update(held.columns)
        else:
            report = execute_with_cost(dag, batch)
            held.columns = tuple(
                (node.output_id, columns[node.output_id])
                for step in plan
                for node in step.nodes
            )
            _freeze(column for _, column in held.columns)
            held.plan, held.report = plan, report
        self._charge_transform(held.report)
        return held.report.copy()

    def tensorize(self, batch: FeatureBatch, split_id: int, sequence: int) -> TensorBatch:
        """Convert a transformed batch into a provenance-stamped tensor
        batch, without buffering it anywhere."""
        tensors = TensorBatch.from_feature_batch(
            batch, self.spec.effective_output_ids()
        )
        tensors.split_id = split_id
        tensors.sequence = sequence
        return tensors

    def deposit(self, tensors: TensorBatch) -> None:
        """Load phase: buffer a ready tensor batch for clients."""
        self.buffer.append(tensors)
        if self.tracer.enabled:
            self.tracer.instant(
                "batch.load",
                actor=self.worker_id,
                split_id=-1 if tensors.split_id is None else tensors.split_id,
                sequence=-1 if tensors.sequence is None else tensors.sequence,
            )
        self.stats.batches_produced += 1
        self._buffered_bytes += tensors.nbytes()
        self.stats.usage.memory_resident_bytes = self._buffered_bytes

    @property
    def buffered_batches(self) -> int:
        """Tensors queued for clients — the autoscaler's key signal."""
        return len(self.buffer)

    @property
    def wants_work(self) -> bool:
        """Backpressure: a worker with a full buffer stops pulling splits.

        Draining workers never pull — they only serve out their buffer.
        """
        return (
            self.alive
            and not self.draining
            and len(self.buffer) < self.config.buffer_batches
        )

    def serve_batch(self) -> TensorBatch | None:
        """RPC handler: pop one tensor batch for a client."""
        if not self.alive:
            raise WorkerFailure(f"worker {self.worker_id} is dead")
        if not self.buffer:
            return None
        batch = self.buffer.popleft()
        self._buffered_bytes -= batch.nbytes()
        self.stats.batches_served += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "batch.serve",
                actor=self.worker_id,
                split_id=-1 if batch.split_id is None else batch.split_id,
                sequence=-1 if batch.sequence is None else batch.sequence,
            )
        wire = batch.wire_bytes()
        self.stats.tensor_tx_bytes += wire
        self.stats.usage.nic_tx_bytes += wire
        self.stats.usage.mem_bytes += wire  # serialization touches every byte
        return batch

    # -- extract ------------------------------------------------------------

    def _reader(self, file_name: str) -> DwrfReader:
        """This worker's reader over one file, built on first use."""
        reader = self._readers.get(file_name)
        if reader is None:
            footer = self.footers[file_name]
            is_map_layout = footer.options.layout is FileLayout.MAP
            reader = self._readers[file_name] = DwrfReader(
                footer,
                self.filesystem.fetcher(file_name),
                ReadOptions(
                    projection=None if is_map_layout else self.spec.projection,
                    coalesce_window=self.spec.coalesce_window,
                ),
                trace=self.io_trace,
            )
        return reader

    def _extract_split(self, split: Split):
        reader = self._reader(split.file_name)
        before_bytes = self.io_trace.bytes_read
        before_useful = self.io_trace.useful_bytes
        use_flatmap = (
            self.config.in_memory_flatmap
            and reader.footer.options.layout is not FileLayout.MAP
        )
        for stripe_index in range(split.stripe_start, split.stripe_end):
            if use_flatmap:
                batch, n_values = self._read_stripe_columnar(reader, stripe_index)
                conversion_values = 0
            else:
                # Row path: with the MAP layout the whole stripe is
                # decoded into rows before the projection can apply —
                # the extract inefficiency feature flattening removes.
                rows = reader.read_stripe(stripe_index, self.schema)
                n_values = self._count_row_values(rows)
                batch = FeatureBatch.from_rows(rows, self._projection_order)
                conversion_values = n_values
            self._ensure_projection_columns(batch)
            compressed = self.io_trace.bytes_read - before_bytes
            # Decode CPU is charged on stream bytes actually decoded;
            # coalesced over-read bytes cross the NIC but are skipped.
            decoded = self.io_trace.useful_bytes - before_useful
            before_bytes = self.io_trace.bytes_read
            before_useful = self.io_trace.useful_bytes
            self._charge_extract(compressed, decoded, n_values, conversion_values)
            self.stats.rows_processed += batch.n_rows
            self.stats.storage_rx_bytes += compressed
            yield from self._rebatch(batch)

    def _read_stripe_columnar(
        self, reader: DwrfReader, stripe_index: int
    ) -> tuple[FeatureBatch, int]:
        """Direct DWRF-streams → columnar-batch decode (flatmap path).

        From this worker's third read of a stripe on, its reads are
        made and verified and the batch wraps the columns kept at the
        second; a transform adds columns to the batch, never to them.
        From the second read on the batch carries the stripe's piece
        holders (see :meth:`transform_batch`).
        """
        key = (reader, stripe_index)
        kept = self._flatmaps.get(key)
        if kept is not None:
            reader.verify_stripe(stripe_index)
            labels, columns, n_values, pieces = kept
            return _KeptBatch(labels, dict(columns), pieces), n_values
        labels, features = reader.decode_stripe(stripe_index, self.schema)
        row_count = reader.footer.stripes[stripe_index].row_count
        batch = FeatureBatch(labels=labels)
        n_values = len(labels)
        for fid in self._projection_order:
            decoded = features.get(fid)
            if decoded is None:
                continue  # feature absent from this stripe
            if decoded.dense_values is not None:
                full = np.zeros(row_count, dtype=np.float32)
                full[decoded.presence] = decoded.dense_values
                batch.add_column(fid, DenseColumn(full, decoded.presence))
                n_values += len(decoded.dense_values)
            else:
                # Decoded flat arrays become the column's backing
                # storage directly; absent rows get empty spans.
                column = SparseColumn(
                    decoded.row_offsets(row_count),
                    decoded.sparse_values,
                    decoded.scores,
                )
                batch.add_column(fid, column)
                n_values += len(column.values)
        if key in self._flatmaps:
            batch.labels.flags.writeable = False
            _freeze(batch.columns.values())
            n_pieces = max(1, -(-row_count // self.spec.batch_size))  # as _rebatch cuts
            pieces = tuple(_Transformed() for _ in range(n_pieces))
            self._flatmaps[key] = (batch.labels, dict(batch.columns), n_values, pieces)
            batch = _KeptBatch(batch.labels, batch.columns, pieces)
        elif reader.stripe_checksummed(stripe_index):
            self._flatmaps[key] = None
        return batch, n_values

    def _ensure_projection_columns(self, batch: FeatureBatch) -> None:
        """Backfill empty columns for projected features absent from a stripe.

        A feature with zero coverage in a stripe writes no streams, but
        the transform DAG still expects its column; production decoders
        materialize an all-null vector in that case.
        """
        n = batch.n_rows
        for fid in self.spec.projection:
            if fid in batch.columns:
                continue
            spec = self.schema.get(fid)
            if spec.ftype is FeatureType.DENSE:
                batch.add_column(
                    fid,
                    DenseColumn(
                        np.zeros(n, dtype=np.float32), np.zeros(n, dtype=bool)
                    ),
                )
            else:
                weights = (
                    np.empty(0, dtype=np.float32)
                    if spec.ftype is FeatureType.SCORED_SPARSE
                    else None
                )
                batch.add_column(
                    fid,
                    SparseColumn(
                        np.zeros(n + 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64),
                        weights,
                    ),
                )

    @staticmethod
    def _count_row_values(rows) -> int:
        total = len(rows)  # labels
        for row in rows:
            total += len(row.dense)
            total += sum(len(ids) for ids in row.sparse.values())
            total += sum(len(ws) for ws in row.scores.values())
        return total

    def _rebatch(self, batch: FeatureBatch):
        """Cut a stripe-sized batch into session-sized mini-batches.

        Stripes rarely equal the training batch size; production
        workers regroup rows.  For simplicity we emit one tensor batch
        per ceil(rows / batch_size) slice without crossing stripes.
        """
        size = self.spec.batch_size
        if batch.n_rows <= size:
            yield batch
            return
        pieces = batch.transformed if type(batch) is _KeptBatch else None
        for index, start in enumerate(range(0, batch.n_rows, size)):
            stop = min(start + size, batch.n_rows)
            labels = batch.labels[start:stop]
            if pieces is None:
                piece = FeatureBatch(labels)
            else:
                piece = _KeptBatch(labels, {}, pieces[index : index + 1])
            for fid, column in batch.columns.items():
                piece.add_column(fid, column.rows(start, stop))
            yield piece

    # -- load ---------------------------------------------------------------

    def _load(self, batch: FeatureBatch, split_id: int, sequence: int) -> None:
        self.deposit(self.tensorize(batch, split_id, sequence))

    # -- cost charging ----------------------------------------------------------

    def _overhead(self) -> float:
        if self.config.localized_optimizations:
            return 1.0
        return self.config.extract_cost.overhead_factor

    def _charge_extract(
        self,
        compressed_bytes: int,
        decoded_bytes: int,
        n_values: int,
        conversion_values: int,
    ) -> None:
        model = self.config.extract_cost
        cycles = (
            decoded_bytes * model.cycles_per_compressed_byte
            + n_values * model.cycles_per_value
            + conversion_values * model.conversion_cycles_per_value
        ) * self._overhead()
        mem = (
            n_values * model.mem_bytes_per_value
            + conversion_values * model.conversion_mem_bytes_per_value
        )
        usage = self.stats.usage
        usage.cpu_cycles += cycles
        usage.mem_bytes += mem
        usage.nic_rx_bytes += compressed_bytes

    def _charge_transform(self, report: CostReport) -> None:
        self.stats.transform_report.merge(report)
        usage = self.stats.usage
        usage.cpu_cycles += report.cycles * self._overhead()
        usage.mem_bytes += report.mem_bytes
