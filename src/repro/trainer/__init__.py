"""Trainer models: GPU demand, host loading tax, stall studies."""

from .cluster_sim import (
    ClusterConfig,
    ClusterThroughput,
    simulate_cluster,
    supply_for_efficiency,
)
from .gpu import PROJECTED_GROWTH_FACTOR, V100_DEMAND_FACTOR, GpuDemand
from .host import (
    LOADING_CYCLES_PER_BYTE,
    LOADING_MEM_BYTES_PER_BYTE,
    loading_utilization,
    max_loading_rate,
)
from .node import TrainingNode, TrainingProgress
from .stalls import StallReport, dpp_supplied_stall, on_host_preprocessing_study

__all__ = [
    "ClusterConfig",
    "ClusterThroughput",
    "simulate_cluster",
    "supply_for_efficiency",
    "GpuDemand",
    "LOADING_CYCLES_PER_BYTE",
    "LOADING_MEM_BYTES_PER_BYTE",
    "PROJECTED_GROWTH_FACTOR",
    "StallReport",
    "TrainingNode",
    "TrainingProgress",
    "V100_DEMAND_FACTOR",
    "dpp_supplied_stall",
    "loading_utilization",
    "max_loading_rate",
    "on_host_preprocessing_study",
]
