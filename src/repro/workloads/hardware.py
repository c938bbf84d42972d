"""Hardware specifications from the paper.

Table 10's compute-server generations (C-v1/v2/v3 and the hypothetical
C-vSotA), the ZionEX-like trainer hosts used in Sections 6.1-6.2, and
power figures for the datacenter power model (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.resources import ResourceSpec
from ..common.units import GB, gbps, gigabytes


@dataclass(frozen=True)
class ComputeNodeSpec:
    """One row of Table 10."""

    name: str
    physical_cores: int
    nic_gbps: float
    memory_gb: float
    peak_mem_bw_gbs: float
    frequency_ghz: float = 2.5
    watts: float = 150.0

    def __post_init__(self) -> None:
        if self.physical_cores <= 0:
            raise ConfigError("cores must be positive")

    @property
    def mem_bw_per_core_gbs(self) -> float:
        """Peak memory bandwidth per core (Table 10 column)."""
        return self.peak_mem_bw_gbs / self.physical_cores

    @property
    def nic_bw_per_core_gbps(self) -> float:
        """NIC bandwidth per core (Table 10 column)."""
        return self.nic_gbps / self.physical_cores


C_V1 = ComputeNodeSpec("C-v1", physical_cores=18, nic_gbps=12.5,
                       memory_gb=64, peak_mem_bw_gbs=75, watts=150.0)
C_V2 = ComputeNodeSpec("C-v2", physical_cores=26, nic_gbps=25.0,
                       memory_gb=64, peak_mem_bw_gbs=92, watts=180.0)
C_V3 = ComputeNodeSpec("C-v3", physical_cores=36, nic_gbps=25.0,
                       memory_gb=64, peak_mem_bw_gbs=83, watts=200.0)
C_VSOTA = ComputeNodeSpec("C-vSotA", physical_cores=64, nic_gbps=100.0,
                          memory_gb=1024, peak_mem_bw_gbs=205, watts=320.0)

COMPUTE_GENERATIONS = (C_V1, C_V2, C_V3, C_VSOTA)


@dataclass(frozen=True)
class TrainerNodeSpec:
    """An 8-GPU training node's host resources.

    ``v100_host`` mirrors the Section 6 testbed (two 28-core sockets,
    two 100 Gbps frontend NICs, 8 V100s); ``zionex`` the next-gen node
    with four sockets and four 100 Gbps NICs (Section 7.1).
    """

    name: str
    n_gpus: int
    sockets: int
    cores_per_socket: int
    nics_gbps: tuple[float, ...]
    peak_mem_bw_gbs: float
    frequency_ghz: float = 2.5
    gpu_watts: float = 300.0
    host_watts: float = 800.0

    @property
    def total_cores(self) -> int:
        """Host cores across sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def total_watts(self) -> float:
        """Node power: GPUs plus host."""
        return self.n_gpus * self.gpu_watts + self.host_watts

    def resource_spec(self) -> ResourceSpec:
        """Host (frontend) resources available for data loading."""
        return ResourceSpec(
            cpu_cycles_per_s=self.total_cores * self.frequency_ghz * 1e9,
            mem_bw_bytes_per_s=self.peak_mem_bw_gbs * GB,
            nic_bytes_per_s=sum(gbps(n) for n in self.nics_gbps),
            memory_capacity_bytes=gigabytes(384),
        )


V100_TRAINER = TrainerNodeSpec(
    name="v100-trainer",
    n_gpus=8,
    sockets=2,
    cores_per_socket=28,
    nics_gbps=(100.0, 100.0),
    peak_mem_bw_gbs=150.0,
)

ZIONEX_TRAINER = TrainerNodeSpec(
    name="zionex",
    n_gpus=8,
    sockets=4,
    cores_per_socket=28,
    nics_gbps=(100.0, 100.0, 100.0, 100.0),
    peak_mem_bw_gbs=300.0,
    gpu_watts=400.0,
    host_watts=1200.0,
)
