"""DPP Clients: the trainer-side half of the data plane.

A client runs on each training node and exposes the hook the PyTorch
runtime calls to obtain preprocessed tensors (Section 3.2.1).  To keep
connection counts bounded, "each Client uses partitioned round robin
routing, capping the number of connections that Clients and Workers
need to maintain."
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..common.errors import DppError, WorkerFailure
from .tensors import TensorBatch
from .worker import DppWorker


@dataclass
class ClientStats:
    """Per-client counters for data-loading characterization."""

    batches_received: int = 0
    bytes_received: int = 0
    empty_polls: int = 0


class DppClient:
    """Pulls tensor batches from a bounded partition of the worker fleet."""

    def __init__(
        self, client_id: str, workers: list[DppWorker], max_connections: int = 4
    ) -> None:
        if max_connections <= 0:
            raise DppError("max_connections must be positive")
        self.client_id = client_id
        self._all_workers = workers
        self.max_connections = max_connections
        self._cursor = 0
        self.stats = ClientStats()
        self._partition = self._build_partition()

    def _build_partition(self) -> list[DppWorker]:
        """Deterministically pick this client's slice of the fleet.

        Clients hash to an offset and take every k-th worker so that
        fleet load stays balanced while per-client connections stay
        capped.
        """
        alive = [worker for worker in self._all_workers if worker.alive]
        if not alive:
            raise DppError("no live workers to connect to")
        if len(alive) <= self.max_connections:
            return list(alive)
        # A process-stable hash: Python's str hash is randomized per
        # interpreter (PYTHONHASHSEED), which would make partition
        # layout -- and thus which workers get drained -- vary from
        # run to run.
        offset = zlib.crc32(self.client_id.encode()) % len(alive)
        stride = max(1, len(alive) // self.max_connections)
        return [alive[(offset + i * stride) % len(alive)] for i in range(self.max_connections)]

    def refresh_partition(self) -> None:
        """Re-pick workers, e.g. after the fleet scales or one dies."""
        self._partition = self._build_partition()

    def get_batch(self) -> TensorBatch | None:
        """The PyTorch-runtime hook: fetch one preprocessed batch.

        Round-robins over the client's partition; a dead worker
        triggers a partition refresh and the poll continues.  Returns
        None when every connected worker's buffer is empty.
        """
        for _ in range(len(self._partition)):
            worker = self._partition[self._cursor % len(self._partition)]
            self._cursor += 1
            try:
                batch = worker.serve_batch()
            except WorkerFailure:
                self.refresh_partition()
                continue
            if batch is not None:
                self.stats.batches_received += 1
                self.stats.bytes_received += batch.wire_bytes()
                return batch
        self.stats.empty_polls += 1
        return None
