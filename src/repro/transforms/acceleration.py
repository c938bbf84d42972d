"""Transform acceleration: GPU/CPU placement and kernel batching (§7.2).

The paper measured an 11.9× GPU/CPU speedup for SigridHash but only
1.3× for Bucketize, and over three orders of magnitude between applying
one kernel to a tensor combining 1000 sparse features versus launching
per-feature kernels.  This module models those effects:

* per-op GPU amenability (speedup of the kernel itself);
* kernel-launch + host-to-device overhead charged per launch, which
  *kernel batching* amortizes across features;
* a placement optimizer choosing CPU or GPU per op for a workload, and
  quantifying how much batching changes the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import TransformError
from .base import Transform

#: GPU kernel speedups over CPU for the ops the paper quantifies, with
#: conservative figures for the rest of Table 11 (hash-like ops
#: vectorize well; per-row ragged ops poorly).
GPU_KERNEL_SPEEDUP = {
    "SigridHash": 11.9,
    "Bucketize": 1.3,
    "NGram": 6.0,
    "Cartesian": 8.0,
    "PositiveModulus": 9.0,
    "MapId": 3.0,
    "FirstX": 1.5,
    "Enumerate": 2.0,
    "ComputeScore": 7.0,
    "IdListTransform": 1.2,
    "BoxCox": 5.0,
    "Logit": 5.0,
    "Clamp": 4.0,
    "Onehot": 3.0,
    "GetLocalHour": 2.5,
    "Sampling": 1.0,
}

#: Fixed cost of one kernel launch + host-to-device transfer, expressed
#: in CPU-cycle-equivalents.  Calibrated so that per-feature launches
#: over ~1000 small features are ~1000x slower than one combined
#: launch, the paper's observation.
KERNEL_LAUNCH_OVERHEAD_CYCLES = 2_000_000.0


@dataclass(frozen=True)
class OpWorkload:
    """One op applied over a feature set each batch."""

    op_name: str
    n_features: int  # features this op applies to per batch
    elements_per_feature: float  # values processed per feature per batch
    cpu_cycles_per_element: float = 10.0

    def __post_init__(self) -> None:
        if self.op_name not in GPU_KERNEL_SPEEDUP:
            raise TransformError(f"no GPU model for op {self.op_name!r}")
        if self.n_features < 1 or self.elements_per_feature <= 0:
            raise TransformError("workload must cover at least one element")

    @property
    def cpu_cycles(self) -> float:
        """Cycles per batch on the CPU."""
        return (
            self.n_features * self.elements_per_feature * self.cpu_cycles_per_element
        )

    def gpu_cycles(self, *, batched_kernel: bool) -> float:
        """Cycle-equivalents per batch on the GPU.

        *batched_kernel* applies one launch to a tensor combining all
        features; otherwise every feature pays its own launch.
        """
        kernel = self.cpu_cycles / GPU_KERNEL_SPEEDUP[self.op_name]
        launches = 1 if batched_kernel else self.n_features
        return kernel + launches * KERNEL_LAUNCH_OVERHEAD_CYCLES


@dataclass(frozen=True)
class PlacementDecision:
    """The optimizer's choice for one op workload."""

    workload: OpWorkload
    device: str  # "cpu" or "gpu"
    cycles: float


@dataclass(frozen=True)
class PlacementPlan:
    """Placement for a whole workload mix."""

    decisions: list[PlacementDecision]

    @property
    def total_cycles(self) -> float:
        """Cycle-equivalents per batch under the plan."""
        return sum(d.cycles for d in self.decisions)

    def devices(self) -> dict[str, str]:
        """op name → chosen device."""
        return {d.workload.op_name: d.device for d in self.decisions}

    def speedup_over_cpu(self) -> float:
        """Gain over running everything on the CPU."""
        cpu = sum(d.workload.cpu_cycles for d in self.decisions)
        return cpu / self.total_cycles


def place_workloads(
    workloads: list[OpWorkload], *, batched_kernels: bool
) -> PlacementPlan:
    """Choose CPU or GPU per op to minimize cycle-equivalents.

    With per-feature launches, launch overhead pushes small-element ops
    back to the CPU; with batched kernels the GPU wins far more often —
    the paper's central point about accelerator APIs.
    """
    decisions = []
    for workload in workloads:
        gpu = workload.gpu_cycles(batched_kernel=batched_kernels)
        cpu = workload.cpu_cycles
        if gpu < cpu:
            decisions.append(PlacementDecision(workload, "gpu", gpu))
        else:
            decisions.append(PlacementDecision(workload, "cpu", cpu))
    return PlacementPlan(decisions)


def batching_speedup(workload: OpWorkload) -> float:
    """Gain from one combined kernel versus per-feature launches."""
    return workload.gpu_cycles(batched_kernel=False) / workload.gpu_cycles(
        batched_kernel=True
    )
