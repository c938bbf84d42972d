"""Data-stall studies: on-host preprocessing versus disaggregated DPP.

Table 7 is the paper's motivating measurement: running RM1's full
pipeline (read + preprocess + train) on one trainer's own CPUs leaves
the GPUs stalled 56% of the time with CPUs at 92%.  This module
reproduces that study analytically: host CPUs must cover extraction,
transformation, *and* loading, and the achievable preprocessing rate
falls far short of GPU demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.serialization import ReportBase, record_from_row, record_row
from ..common.units import GB
from ..dpp.analytical import per_sample_cost
from ..workloads.hardware import TrainerNodeSpec
from ..workloads.models import ModelConfig, model_by_name
from .gpu import GpuDemand

#: Fraction of host CPU available to preprocessing when co-located with
#: the training loop (the rest feeds CUDA launches, optimizer, OS).
HOST_CPU_AVAILABLE_FRACTION = 0.92
#: On-host pipelines skip RPC serialization and TLS between worker and
#: trainer, so their per-sample DRAM traffic is lower than DPP workers'.
ON_HOST_MEM_TRAFFIC_FACTOR = 0.55


@dataclass(frozen=True)
class StallReport(ReportBase):
    """The Table 7 row: stalls plus host utilization."""

    report_kind = "stall"

    model: ModelConfig
    gpu_stall_fraction: float
    cpu_utilization: float
    mem_bw_utilization: float
    supplied_samples_per_s: float
    demanded_samples_per_s: float

    def payload(self) -> dict:
        # The model rides along by catalog name (RM1/RM2/RM3), not as
        # an embedded hardware-profile tree.
        return record_row(self, model=lambda model: model.name)

    @classmethod
    def from_payload(cls, payload: dict) -> "StallReport":
        return record_from_row(cls, payload, "stall report", model=model_by_name)


def on_host_preprocessing_study(
    model: ModelConfig,
    node: TrainerNodeSpec,
    demand: GpuDemand,
) -> StallReport:
    """Reproduce Table 7: preprocess on the trainer's own CPUs.

    Supply is CPU-bound: the host spends every available cycle on
    extract + transform and still cannot match GPU demand, so stall
    fraction is the unmet demand share.
    """
    cost = per_sample_cost(model)
    cpu_capacity = (
        node.total_cores * node.frequency_ghz * 1e9 * HOST_CPU_AVAILABLE_FRACTION
    )
    supply_samples = cpu_capacity / cost.total_cycles
    demand_samples = demand.samples_per_s
    stall = max(0.0, 1.0 - supply_samples / demand_samples)
    achieved = min(supply_samples, demand_samples)

    mem_traffic = (
        achieved * cost.mem_bytes * ON_HOST_MEM_TRAFFIC_FACTOR
    )
    mem_util = mem_traffic / (node.peak_mem_bw_gbs * GB)
    cpu_util = (
        HOST_CPU_AVAILABLE_FRACTION
        if supply_samples < demand_samples
        else demand_samples * cost.total_cycles / (cpu_capacity / HOST_CPU_AVAILABLE_FRACTION)
    )
    return StallReport(
        model=model,
        gpu_stall_fraction=stall,
        cpu_utilization=cpu_util,
        mem_bw_utilization=mem_util,
        supplied_samples_per_s=achieved,
        demanded_samples_per_s=demand_samples,
    )


def dpp_supplied_stall(model: ModelConfig, demand: GpuDemand, n_workers: float,
                       worker_qps: float) -> float:
    """Stall fraction when *n_workers* DPP workers feed the trainer.

    With right-sized worker fleets the stall is zero — the design goal
    of DPP's auto-scaler (Section 3.2.1).
    """
    supply_bytes = n_workers * worker_qps * per_sample_cost(model).tensor_tx_bytes
    return demand.stall_fraction(supply_bytes)
