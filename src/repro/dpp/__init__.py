"""DPP: the disaggregated Data PreProcessing Service (Section 3.2)."""

from .autoscaler import AutoscalerConfig, ScalingDecision, scaling_decision
from .client import ClientStats, DppClient
from .master import DppMaster, MasterCheckpoint, ReplicatedMaster
from .service import DppSession, SessionReport
from .simulation import (
    SimTickSample,
    SimulationConfig,
    SimulationResult,
    TimedDppSimulation,
)
from .spec import SessionSpec
from .split import Split, SplitState, plan_splits
from .tensors import TensorBatch
from .worker import DppWorker, ExtractCostModel, WorkerConfig, WorkerStats

__all__ = [
    "SimTickSample",
    "SimulationConfig",
    "SimulationResult",
    "TimedDppSimulation",
    "AutoscalerConfig",
    "ClientStats",
    "DppClient",
    "DppMaster",
    "DppSession",
    "DppWorker",
    "ExtractCostModel",
    "MasterCheckpoint",
    "ReplicatedMaster",
    "ScalingDecision",
    "SessionReport",
    "SessionSpec",
    "Split",
    "SplitState",
    "TensorBatch",
    "WorkerConfig",
    "WorkerStats",
    "plan_splits",
    "scaling_decision",
]
