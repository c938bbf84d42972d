"""Training nodes: consuming tensors from DPP in executable sessions.

The executable counterpart of the analytical studies: a
:class:`TrainingNode` owns a DPP client, pulls batches through the
PyTorch-hook interface, and tracks ingest counters plus simulated
training steps.  Used by integration tests and examples to close the
loop from raw logs to consumed tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DppError
from ..dpp.client import DppClient
from ..dpp.tensors import TensorBatch
from ..workloads.hardware import TrainerNodeSpec


@dataclass
class TrainingProgress:
    """Counters for one node's training loop."""

    steps: int = 0
    samples: int = 0
    bytes_ingested: int = 0
    stalled_polls: int = 0


class TrainingNode:
    """One 8-GPU node running a data-parallel training loop."""

    def __init__(self, spec: TrainerNodeSpec, client: DppClient) -> None:
        self.spec = spec
        self.client = client
        self.progress = TrainingProgress()

    def train_step(self) -> bool:
        """Pull one batch and run one SGD step; False on a data stall."""
        batch = self.client.get_batch()
        if batch is None:
            self.progress.stalled_polls += 1
            return False
        self._step_on(batch)
        return True

    def _step_on(self, batch: TensorBatch) -> None:
        if batch.n_rows == 0:
            raise DppError("received an empty tensor batch")
        self.progress.steps += 1
        self.progress.samples += batch.n_rows
        self.progress.bytes_ingested += batch.wire_bytes()

    def train_until_exhausted(self, max_steps: int = 1_000_000) -> TrainingProgress:
        """Consume batches until the client runs dry."""
        for _ in range(max_steps):
            if not self.train_step():
                break
        return self.progress
