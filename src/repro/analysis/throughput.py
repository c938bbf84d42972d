"""Tables 8 & 9 and Figures 8 & 9: throughput and utilization rows.

Thin assembly over the analytical models — each function returns the
rows/series the paper prints, so benchmarks and EXPERIMENTS.md render
from one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.units import GB
from ..dpp.analytical import (
    per_sample_cost,
    worker_throughput,
    workers_per_trainer,
)
from ..trainer.host import loading_utilization
from ..workloads.hardware import ComputeNodeSpec, TrainerNodeSpec, C_V1, V100_TRAINER
from ..workloads.models import ALL_MODELS, ModelConfig


@dataclass(frozen=True)
class Table8Row:
    """Per-node GPU ingest throughput for one model."""

    model_name: str
    trainer_gbs: float


def table8_rows(models: tuple[ModelConfig, ...] = ALL_MODELS) -> list[Table8Row]:
    """Table 8: GB/s per 8-GPU node across models."""
    return [Table8Row(m.name, m.trainer_gbs) for m in models]


@dataclass(frozen=True)
class Table9Row:
    """Per-worker throughput and fleet sizing for one model."""

    model_name: str
    kqps: float
    storage_rx_gbs: float
    transform_rx_gbs: float
    transform_tx_gbs: float
    workers_per_trainer: float
    bottleneck: str


def table9_rows(
    models: tuple[ModelConfig, ...] = ALL_MODELS,
    node: ComputeNodeSpec = C_V1,
) -> list[Table9Row]:
    """Table 9 computed from the analytical worker model."""
    rows = []
    for model in models:
        throughput = worker_throughput(model, node)
        cost = per_sample_cost(model)
        qps = throughput.qps
        rows.append(
            Table9Row(
                model_name=model.name,
                kqps=qps / 1_000,
                storage_rx_gbs=qps * cost.storage_rx_bytes / GB,
                transform_rx_gbs=qps * cost.uncompressed_bytes / GB,
                transform_tx_gbs=qps * cost.tensor_tx_bytes / GB,
                workers_per_trainer=workers_per_trainer(model, node),
                bottleneck=throughput.bottleneck,
            )
        )
    return rows


@dataclass(frozen=True)
class Figure8Point:
    """One point of the loading sweep."""

    rate_gbs: float
    cpu: float
    mem_bw: float
    nic_rx: float


def figure8_sweep(
    node: TrainerNodeSpec = V100_TRAINER,
    max_gbs: float = 20.0,
    n_points: int = 21,
) -> list[Figure8Point]:
    """Figure 8: host utilization versus tensor loading rate."""
    points = []
    for i in range(n_points):
        rate = max_gbs * i / (n_points - 1)
        report = loading_utilization(node, rate * GB)
        points.append(
            Figure8Point(rate_gbs=rate, cpu=report.cpu, mem_bw=report.mem_bw,
                         nic_rx=report.nic_rx)
        )
    return points


@dataclass(frozen=True)
class Figure9Row:
    """Per-model DPP worker utilization at saturation."""

    model_name: str
    cpu_transformation: float
    cpu_extraction: float
    cpu_misc: float
    mem_capacity: float
    mem_bw: float
    bottleneck: str


def figure9_rows(
    models: tuple[ModelConfig, ...] = ALL_MODELS,
    node: ComputeNodeSpec = C_V1,
) -> list[Figure9Row]:
    """Figure 9: utilization breakdown at each model's saturation QPS."""
    rows = []
    for model in models:
        throughput = worker_throughput(model, node)
        qps = throughput.qps
        cpu = throughput.cpu_breakdown_at_qps(qps)
        util = throughput.utilization_at_qps(qps)
        # Memory capacity utilization: thread working sets over DRAM.
        threads = min(
            node.physical_cores * 3.0,
            node.memory_gb * 1e9 * 0.625 / (model.working_set_mb_per_thread * 1e6),
        )
        mem_capacity = (
            threads * model.working_set_mb_per_thread * 1e6 / (node.memory_gb * 1e9)
        )
        rows.append(
            Figure9Row(
                model_name=model.name,
                cpu_transformation=cpu["transformation"],
                cpu_extraction=cpu["extraction"],
                cpu_misc=cpu["misc"],
                mem_capacity=mem_capacity,
                mem_bw=util["mem_bw"],
                bottleneck=throughput.bottleneck,
            )
        )
    return rows
