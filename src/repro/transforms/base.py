"""Transform abstraction, op classes, and the registry.

Section 6.4 splits DLRM preprocessing into three classes — dense
normalization, sparse normalization, and feature generation — which
consume roughly 5%, 20%, and 75% of transformation cycles.  Every op
declares its class and per-element work factors so the cost model
(:mod:`repro.transforms.cost`) can charge realistic CPU and memory
traffic for any transform DAG.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from ..common.errors import TransformError
from .batch import Column, FeatureBatch


class OpClass(enum.Enum):
    """Cost class of an operator (Section 6.4)."""

    DENSE_NORMALIZATION = "dense_normalization"
    SPARSE_NORMALIZATION = "sparse_normalization"
    FEATURE_GENERATION = "feature_generation"
    FILTERING = "filtering"  # row sampling; outside the 75/20/5 split


@dataclass(frozen=True)
class OpCost:
    """Work factors used by the cost model.

    ``cycles_per_element`` is CPU cycles charged per input element and
    ``mem_bytes_per_element`` DRAM traffic per input element (reads +
    writes).  Values are relative calibration constants, chosen so the
    aggregate splits match Section 6.4; absolute wall-clock is carried
    by the hardware specs, not by these factors.
    """

    cycles_per_element: float
    mem_bytes_per_element: float


class Transform(abc.ABC):
    """One preprocessing operator over batch columns.

    Transforms are functional: they read input columns from the batch
    and *return* an output column; the DAG executor attaches outputs.
    """

    #: Operator name as it appears in Table 11.
    name: str = "abstract"
    op_class: OpClass = OpClass.FEATURE_GENERATION
    cost: OpCost = OpCost(cycles_per_element=10.0, mem_bytes_per_element=16.0)

    @property
    @abc.abstractmethod
    def input_ids(self) -> tuple[int, ...]:
        """Feature IDs this op reads."""

    @abc.abstractmethod
    def apply(self, batch: FeatureBatch) -> Column:
        """Compute the output column from the batch."""

    def fusion_key(self) -> tuple | None:
        """Ops with equal keys compute one elementwise ``kernel(values)``
        over a single dense input, so the session plan may run a run of
        them as one 2-D call; ``None`` (the default) opts out."""
        return None


_REGISTRY: dict[str, type[Transform]] = {}


def register(cls: type[Transform]) -> type[Transform]:
    """Class decorator adding an op to the global registry."""
    if cls.name in _REGISTRY:
        raise TransformError(f"duplicate op name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_ops() -> dict[str, type[Transform]]:
    """A copy of the registry (name → class)."""
    return dict(_REGISTRY)
