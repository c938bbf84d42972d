"""Online preprocessing transforms (Table 11) over columnar batches."""

from .acceleration import (
    GPU_KERNEL_SPEEDUP,
    OpWorkload,
    PlacementDecision,
    PlacementPlan,
    batching_speedup,
    place_workloads,
)
from .base import OpClass, OpCost, Transform, register, registered_ops
from .batch import Column, DenseColumn, FeatureBatch, SparseColumn
from .cost import CostReport, execute_with_cost
from .dag import DagNode, TransformDag
from .dense import BoxCox, Clamp, Logit, Onehot
from .generation import Bucketize, Cartesian, GetLocalHour, NGram, Sampling
from .sparse import (
    ComputeScore,
    Enumerate,
    FirstX,
    IdListTransform,
    MapId,
    PositiveModulus,
    SigridHash,
    splitmix64,
)

__all__ = [
    "GPU_KERNEL_SPEEDUP",
    "OpWorkload",
    "PlacementDecision",
    "PlacementPlan",
    "batching_speedup",
    "place_workloads",
    "BoxCox",
    "Bucketize",
    "Cartesian",
    "Clamp",
    "Column",
    "ComputeScore",
    "CostReport",
    "DagNode",
    "DenseColumn",
    "Enumerate",
    "FeatureBatch",
    "FirstX",
    "GetLocalHour",
    "IdListTransform",
    "Logit",
    "MapId",
    "NGram",
    "Onehot",
    "OpClass",
    "OpCost",
    "PositiveModulus",
    "Sampling",
    "SigridHash",
    "SparseColumn",
    "Transform",
    "TransformDag",
    "execute_with_cost",
    "register",
    "registered_ops",
    "splitmix64",
]
