"""Reference implementations the DPP master is tested against.

``OracleDppMaster`` and ``OracleReplicatedMaster`` are the master pair
``repro.dpp.master`` shipped before it kept running counts: every
``request_split`` scans the records from the first one, every progress
property re-counts all of them, and the replicated pair re-snapshots
the whole table into a fresh checkpoint after each mutation.  Quadratic
in session size, and the plainest statement of what the production
master must hand out, count and checkpoint.

``OracleDppWorker`` is the worker ``repro.dpp.worker`` shipped before it
kept the flatmaps of stripes it re-reads, and their transformed pieces:
every hand-over of a stripe fetches, verifies, unseals, decodes and
builds its columns afresh (``_read_stripe_columnar`` below is that
body), through readers whose ``_fetch_streams`` is the one-piece body
kept beside the other read oracles in ``tests/dwrf/oracles.py``, and
every batch runs the session DAG (``transform_batch`` below).

``OracleAutoscalingController`` is the controller ``repro.dpp.autoscaler``
shipped before the launch/drain rule became the one function
``scaling_decision``: a list entry over per-worker
``OracleWorkerTelemetry`` reports, a uniform entry for fluid planes, a
``_decide`` both share, and a history of every decision.  It keeps the
scale-up branch as shipped, whose ``min(scale_up_step, max_workers - n)``
drains a pool above its cap; the differential compares it with the rule
only up to the cap.
"""

import types
from dataclasses import dataclass

import numpy as np

from repro.common.errors import DppError
from repro.dpp.autoscaler import _HOLD, ScalingDecision
from repro.dpp.master import MasterCheckpoint, _sample_splits
from repro.dpp.split import Split, SplitState, plan_splits
from repro.dpp.worker import DppWorker
from repro.telemetry.tracer import NULL_TRACER
from repro.transforms.batch import DenseColumn, FeatureBatch, SparseColumn
from repro.transforms.cost import execute_with_cost

from ..dwrf.oracles import oracle_fetch_scratch_streams


@dataclass
class _SplitRecord:
    split: Split
    state: SplitState = SplitState.PENDING
    assigned_to: str | None = None


class OracleDppMaster:
    """Serves splits, tracks progress, and survives worker failures."""

    def __init__(self, spec, files) -> None:
        expected = set(spec.partitions)
        missing = expected - set(files)
        if missing:
            raise DppError(f"files missing for partitions: {sorted(missing)}")
        self.spec = spec
        splits = plan_splits(
            {name: files[name] for name in spec.partitions}, spec.split_stripes
        )
        if spec.row_sample_rate < 1.0:
            splits = _sample_splits(splits, spec.row_sample_rate)
        self._records: dict[int, _SplitRecord] = {
            split.split_id: _SplitRecord(split) for split in splits
        }
        self._registered_workers: set[str] = set()
        # Settable telemetry recorder (kept out of the constructor so
        # every existing call site and pickle path stays unchanged).
        self.tracer = NULL_TRACER

    # -- worker membership ---------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        """Admit a worker into the session."""
        self._registered_workers.add(worker_id)

    def worker_failed(
        self, worker_id: str, stranded_split_ids: tuple[int, ...] | list[int] = ()
    ) -> list[int]:
        """Handle a worker death: requeue its in-flight splits.

        *stranded_split_ids* names splits whose tensor batches were
        still sitting in the dead worker's buffer — produced but never
        served to a client.  A split in that list that already reached
        COMPLETED is reopened (back to PENDING) so its data is
        re-extracted rather than silently lost; delivery degrades to
        at-least-once for any of its batches a client did receive.

        Returns the requeued split IDs.  Because workers are stateless,
        recovery is exactly this requeue — no checkpoint restore.
        """
        self._registered_workers.discard(worker_id)
        requeued = []
        for record in self._records.values():
            if record.state is SplitState.ASSIGNED and record.assigned_to == worker_id:
                record.state = SplitState.PENDING
                record.assigned_to = None
                requeued.append(record.split.split_id)
        for split_id in stranded_split_ids:
            record = self._record(split_id)
            if record.state is SplitState.COMPLETED:
                record.state = SplitState.PENDING
                record.assigned_to = None
                requeued.append(split_id)
        if self.tracer.enabled:
            for split_id in requeued:
                self.tracer.instant(
                    "split.requeue",
                    actor="master",
                    split_id=split_id,
                    worker=worker_id,
                )
            self.tracer.log(
                "worker failed",
                worker=worker_id,
                requeued=len(requeued),
            )
        return requeued

    @property
    def workers(self) -> set[str]:
        """Currently registered workers."""
        return set(self._registered_workers)

    # -- split protocol --------------------------------------------------------

    def request_split(self, worker_id: str) -> Split | None:
        """Hand the next pending split to *worker_id*; None when drained."""
        if worker_id not in self._registered_workers:
            raise DppError(f"unregistered worker {worker_id!r} requested a split")
        for record in self._records.values():
            if record.state is SplitState.PENDING:
                record.state = SplitState.ASSIGNED
                record.assigned_to = worker_id
                if self.tracer.enabled:
                    self.tracer.instant(
                        "split.assign",
                        actor="master",
                        split_id=record.split.split_id,
                        worker=worker_id,
                    )
                return record.split
        return None

    def complete_split(self, worker_id: str, split_id: int) -> None:
        """Mark a split finished by the worker that owned it."""
        record = self._record(split_id)
        if record.state is not SplitState.ASSIGNED or record.assigned_to != worker_id:
            raise DppError(
                f"split {split_id} not assigned to worker {worker_id!r}"
            )
        record.state = SplitState.COMPLETED
        record.assigned_to = None
        if self.tracer.enabled:
            self.tracer.instant(
                "split.complete",
                actor="master",
                split_id=split_id,
                worker=worker_id,
            )

    def begin_epoch(self) -> int:
        """Reopen every COMPLETED split for another pass (PENDING again).

        The serving plane loops epochs over a finite table to feed an
        unbounded fetch stream; splits still ASSIGNED keep their owner
        (the new epoch starts draining behind them).  Returns the
        number of splits reopened.
        """
        reopened = 0
        for record in self._records.values():
            if record.state is SplitState.COMPLETED:
                record.state = SplitState.PENDING
                record.assigned_to = None
                reopened += 1
        if self.tracer.enabled and reopened:
            self.tracer.instant("epoch.begin", actor="master", reopened=reopened)
        return reopened

    def _record(self, split_id: int) -> _SplitRecord:
        try:
            return self._records[split_id]
        except KeyError:
            raise DppError(f"unknown split {split_id}") from None

    # -- progress ---------------------------------------------------------------

    @property
    def splits(self) -> list[Split]:
        """The session's (possibly sampled) splits, in dataset order."""
        return [record.split for record in self._records.values()]

    @property
    def split_ids(self) -> frozenset[int]:
        """Identity of the sampled split set — the recovery invariant:
        any master built from the same spec and files must produce
        exactly this set, or checkpoints would dangle."""
        return frozenset(self._records)

    @property
    def total_splits(self) -> int:
        """Number of splits in the session."""
        return len(self._records)

    @property
    def completed_splits(self) -> int:
        """Number of completed splits."""
        return sum(
            1 for r in self._records.values() if r.state is SplitState.COMPLETED
        )

    @property
    def pending_splits(self) -> int:
        """Number of splits not yet assigned."""
        return sum(1 for r in self._records.values() if r.state is SplitState.PENDING)

    @property
    def assigned_splits(self) -> int:
        """Number of splits currently in flight."""
        return sum(1 for r in self._records.values() if r.state is SplitState.ASSIGNED)

    @property
    def done(self) -> bool:
        """Whether every split has completed."""
        return self.completed_splits == self.total_splits

    @property
    def progress(self) -> float:
        """Completed fraction in [0, 1]."""
        return self.completed_splits / self.total_splits

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(self) -> MasterCheckpoint:
        """Snapshot completed-split state for failure recovery."""
        completed = frozenset(
            split_id
            for split_id, record in self._records.items()
            if record.state is SplitState.COMPLETED
        )
        return MasterCheckpoint(self.spec.table_name, completed)

    def restore(self, checkpoint: MasterCheckpoint) -> None:
        """Restore from a checkpoint: completed stay done, rest requeue.

        Splits that completed after the checkpoint was taken are
        *re-queued* (at-least-once delivery) — the data plane tolerates
        replays because tensors are consumed idempotently per split.
        """
        if checkpoint.session_table != self.spec.table_name:
            raise DppError("checkpoint belongs to a different session")
        unknown = checkpoint.completed_split_ids - set(self._records)
        if unknown:
            raise DppError(f"checkpoint references unknown splits: {sorted(unknown)}")
        for split_id, record in self._records.items():
            if split_id in checkpoint.completed_split_ids:
                record.state = SplitState.COMPLETED
            else:
                record.state = SplitState.PENDING
            record.assigned_to = None


class OracleReplicatedMaster:
    """Primary/standby master pair (the master "is replicated to avoid
    being a single point of failure", Section 3.2.1).

    The primary serves all traffic and ships every state change to the
    standby synchronously (we model replication as shared-nothing
    checkpoint shipping on each mutation).  ``fail_over`` promotes the
    standby, losing nothing.
    """

    def __init__(self, spec, files) -> None:
        self._spec = spec
        self._files = dict(files)
        self.primary = OracleDppMaster(spec, files)
        self._standby_checkpoint = self.primary.checkpoint()
        self._standby_workers: set[str] = set()
        self.failovers = 0
        self.tracer = NULL_TRACER

    def attach_tracer(self, tracer) -> None:
        """Report master activity through *tracer* (carried across
        fail-overs onto each promoted replica)."""
        self.tracer = tracer
        self.primary.tracer = tracer

    def register_worker(self, worker_id: str) -> None:
        """Register on the primary and mirror membership to the standby."""
        self.primary.register_worker(worker_id)
        self._standby_workers.add(worker_id)

    def request_split(self, worker_id: str) -> Split | None:
        """Delegate to the primary."""
        return self.primary.request_split(worker_id)

    def complete_split(self, worker_id: str, split_id: int) -> None:
        """Delegate to the primary, then replicate state."""
        self.primary.complete_split(worker_id, split_id)
        self._standby_checkpoint = self.primary.checkpoint()

    def worker_failed(
        self, worker_id: str, stranded_split_ids: tuple[int, ...] | list[int] = ()
    ) -> list[int]:
        """Delegate to the primary, mirror membership, and replicate.

        Reopening a stranded COMPLETED split mutates durable state, so
        the standby checkpoint must be reshipped — otherwise a failover
        would resurrect the split as completed while its batches died
        with the worker.
        """
        self._standby_workers.discard(worker_id)
        requeued = self.primary.worker_failed(worker_id, stranded_split_ids)
        self._standby_checkpoint = self.primary.checkpoint()
        return requeued

    def begin_epoch(self) -> int:
        """Delegate to the primary, then replicate the reopened state."""
        reopened = self.primary.begin_epoch()
        self._standby_checkpoint = self.primary.checkpoint()
        return reopened

    def checkpoint(self) -> MasterCheckpoint:
        """Snapshot the primary's durable state."""
        return self.primary.checkpoint()

    def restore(self, checkpoint: MasterCheckpoint) -> None:
        """Restore the primary from *checkpoint* and re-ship the standby.

        Used when simulating a full master-process restart: the caller
        rebuilds the pair from the session spec, then replays the last
        durable checkpoint into it.
        """
        self.primary.restore(checkpoint)
        self._standby_checkpoint = self.primary.checkpoint()

    def fail_over(self) -> None:
        """Kill the primary and promote a fresh replica from shipped state.

        In-flight (assigned) splits are requeued — workers simply fetch
        them again; completed state is preserved exactly.
        """
        replacement = OracleDppMaster(self._spec, self._files)
        replacement.restore(self._standby_checkpoint)
        for worker_id in self._standby_workers:
            replacement.register_worker(worker_id)
        replacement.tracer = self.tracer
        self.primary = replacement
        self.failovers += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "master.failover", actor="master", failovers=self.failovers
            )

    @property
    def done(self) -> bool:
        """Whether the session has completed every split."""
        return self.primary.done


class OracleDppWorker(DppWorker):
    """A worker that decodes every stripe on every read and transforms
    every batch."""

    def transform_batch(self, batch):
        """Run the session DAG over one batch and charge its cost."""
        report = execute_with_cost(self.spec.dag, batch)
        self._charge_transform(report)
        return report

    def _reader(self, file_name):
        reader = super()._reader(file_name)
        reader._fetch_streams = types.MethodType(oracle_fetch_scratch_streams, reader)
        return reader

    def _read_stripe_columnar(self, reader, stripe_index):
        """Direct DWRF-streams → columnar-batch decode (flatmap path)."""
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
                column = SparseColumn(
                    decoded.row_offsets(row_count),
                    decoded.sparse_values,
                    decoded.scores,
                )
                batch.add_column(fid, column)
                n_values += len(column.values)
        return batch, n_values


@dataclass(frozen=True)
class OracleWorkerTelemetry:
    """One worker's report to the controller."""

    worker_id: str
    buffered_batches: int
    cpu_utilization: float
    memory_utilization: float
    network_utilization: float

    @property
    def max_utilization(self) -> float:
        """Highest of the three resource utilizations."""
        return max(self.cpu_utilization, self.memory_utilization, self.network_utilization)


class OracleAutoscalingController:
    """Evaluates worker telemetry into launch/drain decisions."""

    def __init__(self, config) -> None:
        self.config = config
        self.decisions: list[ScalingDecision] = []

    def evaluate(self, telemetry: list[OracleWorkerTelemetry]) -> ScalingDecision:
        """One control-loop iteration over the fleet's reports."""
        if not telemetry:
            decision = ScalingDecision(self.config.scale_up_step, "no live workers")
            self.decisions.append(decision)
            return decision
        n = len(telemetry)
        return self._decide(
            n,
            sum(t.buffered_batches for t in telemetry) / n,
            sum(t.max_utilization for t in telemetry) / n,
        )

    def evaluate_uniform(
        self, n_workers: int, buffered_batches: int, utilization: float
    ) -> ScalingDecision:
        """O(1) evaluation of a fleet whose workers report identically."""
        if n_workers <= 0:
            decision = ScalingDecision(self.config.scale_up_step, "no live workers")
            self.decisions.append(decision)
            return decision
        return self._decide(
            n_workers, float(buffered_batches), max(utilization, 0.0)
        )

    def _decide(
        self, n: int, buffered_per_worker: float, mean_utilization: float
    ) -> ScalingDecision:
        """The shared launch/drain policy over fleet-level aggregates."""
        config = self.config
        if (
            buffered_per_worker >= config.min_buffered_per_worker
            and (
                buffered_per_worker <= config.drain_buffered_per_worker
                or mean_utilization >= config.low_utilization
                or n <= config.min_workers
            )
        ):
            self.decisions.append(_HOLD)
            return _HOLD
        if buffered_per_worker < config.min_buffered_per_worker:
            headroom = config.max_workers - n
            delta = min(config.scale_up_step, headroom)
            decision = ScalingDecision(
                delta,
                f"buffers low ({buffered_per_worker:.2f}/worker): trainers at risk of stalls",
            )
        else:
            drainable = n - config.min_workers
            decision = ScalingDecision(
                -min(config.drain_step, drainable),
                f"buffers full ({buffered_per_worker:.2f}/worker) and fleet "
                f"underutilized ({mean_utilization:.0%})",
            )
        self.decisions.append(decision)
        return decision
