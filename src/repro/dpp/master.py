"""The DPP Master: work distribution, fault tolerance, checkpointing.

The control plane of DPP (Section 3.2.1).  The master serves splits to
workers on request, tracks progress, periodically checkpoints reader
state, detects failed workers and requeues their in-flight splits
(workers are stateless, so no worker-side restore is needed), and is
itself replicated to avoid a single point of failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DppError
from ..common.hashing import stable_fraction
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..dwrf.layout import FileFooter
from .spec import SessionSpec
from .split import Split, SplitState, plan_splits


@dataclass(frozen=True)
class MasterCheckpoint:
    """Durable snapshot of reader state: which splits completed."""

    session_table: str
    completed_split_ids: frozenset[int]


@dataclass
class _SplitRecord:
    split: Split
    position: int  # index in dataset order
    state: SplitState = SplitState.PENDING
    assigned_to: str | None = None


def _sample_splits(splits: list[Split], rate: float) -> list[Split]:
    """Deterministic split-level row sampling (pushdown).

    Splits are kept by a *process-stable* hash of their identity
    (:func:`~repro.common.hashing.stable_fraction` — never the salted
    builtin ``hash()``), so the sample is identical across master
    restarts, replicas, and PYTHONHASHSEED values — a requirement for
    exactly-once epoch semantics under failover.  At least one split
    always survives.
    """
    kept = [
        split
        for split in splits
        if stable_fraction(split.file_name, split.stripe_start) < rate
    ]
    return kept or splits[:1]


class DppMaster:
    """Serves splits, tracks progress, and survives worker failures."""

    def __init__(self, spec: SessionSpec, files: dict[str, FileFooter]) -> None:
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
            split.split_id: _SplitRecord(split, position)
            for position, split in enumerate(splits)
        }
        # What a scan of the records would find, kept at the one place a
        # split changes state (_move): splits per state, and the lowest
        # position that may hold a PENDING split, so handing out the
        # next split and reading progress cost the same at any size.
        self._order = list(self._records.values())
        self._counts = dict.fromkeys(SplitState, 0)
        self._counts[SplitState.PENDING] = len(self._order)
        self._cursor = 0
        self._registered_workers: set[str] = set()
        # Settable telemetry recorder (kept out of the constructor so
        # every existing call site and pickle path stays unchanged).
        self.tracer: Tracer = NULL_TRACER

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
        for record in self._order:
            if record.state is SplitState.ASSIGNED and record.assigned_to == worker_id:
                self._move(record, SplitState.PENDING)
                requeued.append(record.split.split_id)
        for split_id in stranded_split_ids:
            record = self._record(split_id)
            if record.state is SplitState.COMPLETED:
                self._move(record, SplitState.PENDING)
                requeued.append(split_id)
        if self.tracer.enabled:
            for split_id in requeued:
                self.tracer.instant(
                    "split.requeue",
                    actor="master",
                    split_id=split_id,
                    worker=worker_id,
                )
        return requeued

    # -- split protocol --------------------------------------------------------

    def request_split(self, worker_id: str) -> Split | None:
        """Hand the next pending split to *worker_id*; None when drained."""
        if worker_id not in self._registered_workers:
            raise DppError(f"unregistered worker {worker_id!r} requested a split")
        order = self._order
        # Nothing below the cursor is PENDING, so this is the scan from
        # the first record with its known-fruitless prefix skipped.
        while self._cursor < len(order):
            record = order[self._cursor]
            self._cursor += 1
            if record.state is SplitState.PENDING:
                self._move(record, SplitState.ASSIGNED, worker_id)
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
        self._move(record, SplitState.COMPLETED)
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
        reopened = self._counts[SplitState.COMPLETED]
        for record in self._order:
            if record.state is SplitState.COMPLETED:
                self._move(record, SplitState.PENDING)
        if self.tracer.enabled and reopened:
            self.tracer.instant("epoch.begin", actor="master", reopened=reopened)
        return reopened

    def _record(self, split_id: int) -> _SplitRecord:
        try:
            return self._records[split_id]
        except KeyError:
            raise DppError(f"unknown split {split_id}") from None

    def _move(
        self, record: _SplitRecord, state: SplitState, owner: str | None = None
    ) -> None:
        """Every state change of a split, so the counts and the cursor
        never disagree with the records."""
        self._counts[record.state] -= 1
        self._counts[state] += 1
        record.state = state
        record.assigned_to = owner
        if state is SplitState.PENDING and record.position < self._cursor:
            self._cursor = record.position

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
        return self._counts[SplitState.COMPLETED]

    @property
    def done(self) -> bool:
        """Whether every split has completed."""
        return self.completed_splits == self.total_splits

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
                self._move(record, SplitState.COMPLETED)
            else:
                self._move(record, SplitState.PENDING)


class ReplicatedMaster:
    """Primary/standby master pair (the master "is replicated to avoid
    being a single point of failure", Section 3.2.1).

    The primary serves all traffic and ships every state change to the
    standby synchronously (we model replication as shared-nothing
    shipping of each mutation's change to the completed set, so a
    mutation costs the standby what it changed, not the whole table).
    ``fail_over`` promotes the standby, losing nothing.
    """

    def __init__(self, spec: SessionSpec, files: dict[str, FileFooter]) -> None:
        self._spec = spec
        self._files = dict(files)
        self.primary = DppMaster(spec, files)
        self._standby_completed: set[int] = set()
        self._standby_workers: set[str] = set()
        self.failovers = 0
        self.tracer: Tracer = NULL_TRACER

    def attach_tracer(self, tracer: Tracer) -> None:
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
        self._standby_completed.add(split_id)

    def worker_failed(
        self, worker_id: str, stranded_split_ids: tuple[int, ...] | list[int] = ()
    ) -> list[int]:
        """Delegate to the primary, mirror membership, and replicate.

        Reopening a stranded COMPLETED split mutates durable state, so
        the standby must hear of it — otherwise a failover would
        resurrect the split as completed while its batches died with
        the worker.
        """
        self._standby_workers.discard(worker_id)
        requeued = self.primary.worker_failed(worker_id, stranded_split_ids)
        self._standby_completed.difference_update(requeued)
        return requeued

    def begin_epoch(self) -> int:
        """Delegate to the primary, then replicate the reopened state."""
        reopened = self.primary.begin_epoch()
        self._standby_completed.clear()  # every completed split reopened
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
        self._standby_completed = set(checkpoint.completed_split_ids)

    def fail_over(self) -> None:
        """Kill the primary and promote a fresh replica from shipped state.

        In-flight (assigned) splits are requeued — workers simply fetch
        them again; completed state is preserved exactly.
        """
        replacement = DppMaster(self._spec, self._files)
        replacement.restore(
            MasterCheckpoint(self._spec.table_name, frozenset(self._standby_completed))
        )
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
