"""DPP session orchestration: wiring master, workers, and clients.

:class:`DppSession` is the façade FBLearner-Flow-launched jobs interact
with: it plans splits from published partition footers, spawns the
worker fleet, connects trainer clients, and pumps the data plane.  The
pump is synchronous and deterministic — a virtual scheduler standing in
for the distributed runtime — while all data movement (bytes decoded,
batches produced) is real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..common.errors import DppError
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..dwrf.layout import FileFooter
from ..tectonic.filesystem import TectonicFilesystem
from ..warehouse.publish import partition_file_name
from ..warehouse.schema import TableSchema
from .autoscaler import AutoscalerConfig, scaling_decision
from .client import DppClient
from .master import ReplicatedMaster
from .spec import SessionSpec
from .tensors import TensorBatch
from .worker import DppWorker, WorkerConfig


@dataclass
class SessionReport:
    """Summary of a completed session."""

    rows_processed: int = 0
    batches_delivered: int = 0
    storage_rx_bytes: int = 0
    tensor_bytes_delivered: int = 0
    peak_workers: int = 0
    scaling_events: list[str] = field(default_factory=list)


class DppSession:
    """One training job's preprocessing session."""

    def __init__(
        self,
        spec: SessionSpec,
        filesystem: TectonicFilesystem,
        schema: TableSchema,
        partition_footers: dict[str, FileFooter],
        n_workers: int = 2,
        n_clients: int = 1,
        worker_config: WorkerConfig | None = None,
        autoscaler_config: AutoscalerConfig | None = None,
    ) -> None:
        """*filesystem* may be any object with the Tectonic read surface
        (``read``/``fetcher``/``file``)."""
        if n_workers < 1 or n_clients < 1:
            raise DppError("a session needs at least one worker and one client")
        self.spec = spec
        self.filesystem = filesystem
        self.schema = schema
        # Key footers by Tectonic path, which is what splits reference.
        self.footers = {
            partition_file_name(spec.table_name, partition): footer
            for partition, footer in partition_footers.items()
        }
        path_spec = replace(
            spec,
            partitions=tuple(
                partition_file_name(spec.table_name, p) for p in spec.partitions
            ),
        )
        self.tracer: Tracer = NULL_TRACER
        self.master = ReplicatedMaster(path_spec, self.footers)
        self.worker_config = worker_config or WorkerConfig()
        self._worker_ids = itertools.count()
        self.workers: list[DppWorker] = [
            self._spawn_worker() for _ in range(n_workers)
        ]
        self.clients = [
            DppClient(f"client-{i}", self.workers) for i in range(n_clients)
        ]
        self.autoscaler_config = autoscaler_config or AutoscalerConfig()
        self.report = SessionReport(peak_workers=n_workers)
        # Round-pump state (see begin_rounds/pump_round): kept on the
        # session so an external scheduler can drive rounds one at a
        # time without owning a local loop.
        self._delivered: list[TensorBatch] = []
        self._draining = False

    def _spawn_worker(self) -> DppWorker:
        worker = DppWorker(
            worker_id=f"worker-{next(self._worker_ids)}",
            master=self.master,
            filesystem=self.filesystem,
            schema=self.schema,
            footers=self.footers,
            config=self.worker_config,
        )
        worker.tracer = self.tracer
        return worker

    def attach_tracer(self, tracer: Tracer) -> None:
        """Report session activity through *tracer*.

        Covers the current master and workers plus everything spawned
        later (scale-ups, master restarts): spawn and restart paths
        re-read ``self.tracer``.
        """
        self.tracer = tracer
        self.master.attach_tracer(tracer)
        for worker in self.workers:
            worker.tracer = tracer

    # -- fleet management ------------------------------------------------------

    @property
    def live_workers(self) -> list[DppWorker]:
        """Workers actively pulling splits (alive and not draining)."""
        return [
            worker
            for worker in self.workers
            if worker.alive and not worker.draining
        ]

    @property
    def serving_workers(self) -> list[DppWorker]:
        """Workers clients may still pull from — including drainers
        serving out their buffers."""
        return [worker for worker in self.workers if worker.alive]

    def scale(self, delta: int) -> None:
        """Launch (+) or drain (−) workers and refresh client routing.

        Draining is graceful: the worker stops pulling splits but keeps
        serving until its buffer empties, at which point the pump
        retires it — no buffered batch is ever stranded by scale-down.
        """
        if delta > 0:
            for _ in range(delta):
                self.workers.append(self._spawn_worker())
        elif delta < 0:
            for worker in self.live_workers[: -delta]:
                worker.drain()
        for client in self.clients:
            client.refresh_partition()
        self.report.peak_workers = max(
            self.report.peak_workers, len(self.live_workers)
        )

    def restart_master(self) -> None:
        """Simulate a master-process restart: rebuild from the durable
        checkpoint (Section 3.2.1's recovery path).

        Because split sampling is process-stable, the rebuilt master
        plans the *identical* split set, so every checkpointed split ID
        resolves.  Workers re-register and re-bind; in-flight progress
        past the checkpoint replays (at-least-once).
        """
        checkpoint = self.master.checkpoint()
        replacement = ReplicatedMaster(self.master.primary.spec, self.footers)
        replacement.restore(checkpoint)
        replacement.attach_tracer(self.tracer)
        for worker in self.serving_workers:
            replacement.register_worker(worker.worker_id)
        self.master = replacement
        for worker in self.workers:
            worker.master = replacement
        if self.tracer.enabled:
            self.tracer.instant("master.restart", actor="master")

    def run_autoscaler(self) -> int:
        """Evaluate the scaling rule on the live workers, apply the delta.

        The rule sees the live-worker count, the mean buffered tensors
        per worker and the mean CPU utilization.  The executable pump
        has no wall clock, so a worker's utilization is its CPU cycles
        relative to the busiest live worker's; memory and network are
        not measured.
        """
        live = self.live_workers
        n = len(live)
        peak_cycles = max(
            (w.stats.usage.cpu_cycles for w in live), default=1.0
        ) or 1.0
        decision = scaling_decision(
            self.autoscaler_config,
            n,
            sum(w.buffered_batches for w in live) / (n or 1),
            sum(w.stats.usage.cpu_cycles / peak_cycles for w in live) / (n or 1),
        )
        if decision.delta:
            if self.tracer.enabled:
                self.tracer.instant(
                    "session.scale",
                    actor="session",
                    delta=decision.delta,
                    action=decision.action,
                )
            self.scale(decision.delta)
            self.report.scaling_events.append(
                f"{decision.action} {abs(decision.delta)}: {decision.reason}"
            )
        return decision.delta

    # -- the pump ----------------------------------------------------------------
    #
    # The pump is exposed as a non-blocking step API: begin_rounds()
    # resets per-run state, pump_round() executes exactly one fair
    # round and hands back what it delivered, and finish_rounds() seals
    # the report.  The synchronous pump() below is a thin adapter over
    # those three calls; an external scheduler (the chaos runner, a
    # co-simulated fleet) interleaves pump_round() with its own events
    # instead.

    def begin_rounds(self) -> None:
        """Reset the round-pump state for a fresh run."""
        self._delivered = []
        self._draining = False

    def pump_round(
        self, client_batches_per_round: int | None = None
    ) -> list[tuple[str, TensorBatch]] | None:
        """Execute one fair round; None once the session is complete.

        One round: every live worker processes one split, every client
        drains available batches — at most *client_batches_per_round*
        each (a slow trainer), all of them when None — and drained
        workers retire.  Returns the round's ``(client_id, batch)``
        deliveries in pull order.  Raises if the session cannot finish
        (e.g. all workers dead and autoscaling disabled).
        """
        if self.master.done and not any(
            worker.buffer for worker in self.serving_workers
        ):
            return None
        if not self.master.done:
            # done can regress: a worker crash reopens splits whose
            # batches died unserved.  Re-arm the endgame widening so
            # the next completion re-evaluates the fan-out.
            self._draining = False
        elif not self._draining:
            # Endgame drain: widen every client's fan-out so no
            # worker's buffered tensors are stranded behind the
            # steady-state connection cap.  Drainers still serving
            # out count — their buffers are part of the session.
            self._draining = True
            for client in self.clients:
                client.max_connections = max(
                    client.max_connections, len(self.serving_workers)
                )
                client.refresh_partition()
        if not self.master.done and not self.live_workers:
            raise DppError("session stalled: no live workers")
        for worker in list(self.live_workers):
            if not self.master.done and worker.wants_work:
                worker.process_one_split()
        quota = client_batches_per_round
        deliveries = []
        for client in self.clients:
            pulled = 0
            while quota is None or pulled < quota:
                batch = client.get_batch()
                if batch is None:
                    break
                pulled += 1
                deliveries.append((client.client_id, batch))
                self._delivered.append(batch)
        self.retire_drained_workers()
        return deliveries

    def finish_rounds(self) -> SessionReport:
        """Seal and return the report for the rounds pumped so far."""
        self._finalize_report(self._delivered)
        return self.report

    def pump(self, max_rounds: int = 100_000) -> SessionReport:
        """Run the session to completion.

        Each round, every live worker processes one split and every
        client drains available batches — a fair round-robin scheduler.
        Raises if the session cannot finish (e.g. all workers dead and
        autoscaling disabled).
        """
        self.begin_rounds()
        for _ in range(max_rounds):
            if self.pump_round() is None:
                break
        else:
            raise DppError("pump exceeded max_rounds")
        return self.finish_rounds()

    def retire_drained_workers(self) -> None:
        """Retire drainers whose buffers clients have fully emptied."""
        retired = False
        for worker in self.workers:
            if worker.alive and worker.draining and not worker.buffer:
                worker.retire()
                retired = True
        if retired and self.serving_workers:
            for client in self.clients:
                client.refresh_partition()

    def _finalize_report(self, delivered: list[TensorBatch]) -> None:
        self.report.rows_processed = sum(
            worker.stats.rows_processed for worker in self.workers
        )
        self.report.batches_delivered = len(delivered)
        self.report.storage_rx_bytes = sum(
            worker.stats.storage_rx_bytes for worker in self.workers
        )
        self.report.tensor_bytes_delivered = sum(
            batch.wire_bytes() for batch in delivered
        )
