"""The three representative recommendation models RM1, RM2, RM3.

Each :class:`ModelConfig` carries the per-model constants the paper
reports across Tables 3, 4, 5, 8, and 9 plus the popularity skew behind
Figure 7.  Experiments read paper constants from here and compare them
against values measured on the scaled-down executable pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.units import GB, PB


@dataclass(frozen=True)
class ModelFeatures:
    """Table 4: features a representative model version requires."""

    n_dense: int
    n_sparse: int
    n_derived: int


@dataclass(frozen=True)
class DatasetStats:
    """Table 5: characteristics of the model's production table."""

    n_float_features: int
    n_sparse_features: int
    avg_coverage: float
    avg_sparse_length: float
    pct_features_used: float
    pct_bytes_used: float


@dataclass(frozen=True)
class TableSizes:
    """Table 3: compressed partition sizes (bytes)."""

    all_partitions: float
    each_partition: float
    used_partitions: float


@dataclass(frozen=True)
class DppThroughput:
    """Table 9: per-worker throughput on C-v1 and workers per trainer."""

    kqps: float
    storage_rx_gbs: float
    transform_rx_gbs: float
    transform_tx_gbs: float
    workers_per_trainer: float


@dataclass(frozen=True)
class ModelConfig:
    """Everything the experiments need to know about one RM."""

    name: str
    features: ModelFeatures
    dataset: DatasetStats
    table_sizes: TableSizes
    trainer_gbs: float  # Table 8: GB/s per 8-GPU node
    dpp: DppThroughput
    popularity_bytes_for_80pct: float  # Fig 7: fraction of bytes serving 80% of I/O
    transform_intensity: float  # relative transform cycles per sample (RM2 = 1.0)
    working_set_mb_per_thread: float  # drives RM3's memory-capacity bound
    transform_mem_intensity: float = 1.0  # relative transform DRAM traffic
    projection_length_bias: float = 1.0  # how strongly jobs favor long features

    def __post_init__(self) -> None:
        if not 0 < self.popularity_bytes_for_80pct < 1:
            raise ConfigError("popularity fraction must be in (0, 1)")
        if self.trainer_gbs <= 0:
            raise ConfigError("trainer throughput must be positive")

    @property
    def trainer_bytes_per_s(self) -> float:
        """Table 8 in bytes/s."""
        return self.trainer_gbs * GB

    @property
    def bytes_per_sample(self) -> float:
        """Preprocessed tensor bytes per sample (Table 9 TX / QPS)."""
        return self.dpp.transform_tx_gbs * GB / (self.dpp.kqps * 1_000)

    @property
    def samples_per_s_per_trainer(self) -> float:
        """Trainer demand in samples/s implied by Tables 8 and 9."""
        return self.trainer_bytes_per_s / self.bytes_per_sample


RM1 = ModelConfig(
    name="RM1",
    features=ModelFeatures(n_dense=1221, n_sparse=298, n_derived=304),
    dataset=DatasetStats(
        n_float_features=12115,
        n_sparse_features=1763,
        avg_coverage=0.45,
        avg_sparse_length=25.97,
        pct_features_used=11.0,
        pct_bytes_used=37.0,
    ),
    table_sizes=TableSizes(
        all_partitions=13.45 * PB, each_partition=0.15 * PB, used_partitions=11.95 * PB
    ),
    trainer_gbs=16.50,
    dpp=DppThroughput(
        kqps=11.623,
        storage_rx_gbs=0.8,
        transform_rx_gbs=1.37,
        transform_tx_gbs=0.68,
        workers_per_trainer=24.16,
    ),
    popularity_bytes_for_80pct=0.39,
    transform_intensity=2.4,  # RM1's transforms are computationally expensive (§6.3)
    working_set_mb_per_thread=400.0,
)

RM2 = ModelConfig(
    name="RM2",
    features=ModelFeatures(n_dense=1113, n_sparse=306, n_derived=317),
    dataset=DatasetStats(
        n_float_features=12596,
        n_sparse_features=1817,
        avg_coverage=0.41,
        avg_sparse_length=25.57,
        pct_features_used=10.0,
        pct_bytes_used=34.0,
    ),
    table_sizes=TableSizes(
        all_partitions=29.18 * PB, each_partition=0.32 * PB, used_partitions=25.94 * PB
    ),
    trainer_gbs=4.69,
    dpp=DppThroughput(
        kqps=7.995,
        storage_rx_gbs=1.2,
        transform_rx_gbs=0.96,
        transform_tx_gbs=0.50,
        workers_per_trainer=9.44,
    ),
    popularity_bytes_for_80pct=0.37,
    transform_intensity=1.0,
    working_set_mb_per_thread=500.0,
)

RM3 = ModelConfig(
    name="RM3",
    features=ModelFeatures(n_dense=504, n_sparse=42, n_derived=1),
    dataset=DatasetStats(
        n_float_features=5707,
        n_sparse_features=188,
        avg_coverage=0.29,
        avg_sparse_length=19.64,
        pct_features_used=9.0,
        pct_bytes_used=21.0,
    ),
    table_sizes=TableSizes(
        all_partitions=2.93 * PB, each_partition=0.07 * PB, used_partitions=1.95 * PB
    ),
    trainer_gbs=12.00,
    dpp=DppThroughput(
        kqps=36.921,
        storage_rx_gbs=0.8,
        transform_rx_gbs=1.01,
        transform_tx_gbs=0.22,
        workers_per_trainer=55.22,
    ),
    popularity_bytes_for_80pct=0.18,
    transform_intensity=0.55,
    working_set_mb_per_thread=2400.0,  # RM3 is memory-capacity bound (§6.3)
    transform_mem_intensity=0.55,
    projection_length_bias=0.15,  # RM3's feature use is mostly dense/legacy
)

ALL_MODELS = (RM1, RM2, RM3)


def model_by_name(name: str) -> ModelConfig:
    """Look up RM1/RM2/RM3 by name."""
    for model in ALL_MODELS:
        if model.name == name:
            return model
    raise ConfigError(f"unknown model {name!r}")
