"""Host resource models: CPU, memory bandwidth, and NIC.

The paper's throughput characterizations (Figures 8 and 9, Tables 7 and
9) are all statements about which host resource saturates first.  We
model each resource as a rate-capacity account: work items charge the
account some amount of resource-seconds, and utilization is the charged
amount divided by capacity × elapsed time.

These are analytical (fluid) models rather than cycle simulators — the
paper's numbers are fleet-level utilization percentages, which a fluid
model reproduces faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class ResourceSpec:
    """Static capacities for one host, in base units per second.

    ``cpu_cycles_per_s`` aggregates all cores (cores × frequency),
    ``mem_bw_bytes_per_s`` is peak DRAM bandwidth, and
    ``nic_bytes_per_s`` is full-duplex NIC line rate per direction.
    """

    cpu_cycles_per_s: float
    mem_bw_bytes_per_s: float
    nic_bytes_per_s: float
    memory_capacity_bytes: float = 0.0

    def __post_init__(self) -> None:
        if min(self.cpu_cycles_per_s, self.mem_bw_bytes_per_s, self.nic_bytes_per_s) <= 0:
            raise ConfigError("resource capacities must be positive")
        if self.memory_capacity_bytes < 0:
            raise ConfigError("memory capacity cannot be negative")


@dataclass
class ResourceUsage:
    """Accumulated demand against one :class:`ResourceSpec`.

    Demands are expressed per second of steady-state operation: e.g.
    ``cpu_cycles`` is cycles consumed each second at the offered load.
    """

    cpu_cycles: float = 0.0
    mem_bytes: float = 0.0
    nic_rx_bytes: float = 0.0
    nic_tx_bytes: float = 0.0
    memory_resident_bytes: float = 0.0


@dataclass(frozen=True)
class UtilizationReport:
    """Fractional utilization of each resource at a given offered load."""

    cpu: float
    mem_bw: float
    nic_rx: float
    nic_tx: float
    memory_capacity: float


@dataclass
class HostModel:
    """Fluid model of one host: capacities plus offered per-second usage."""

    spec: ResourceSpec
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    mem_bw_saturation: float = 0.7

    def utilization(self) -> UtilizationReport:
        """Compute utilization at the current offered load.

        Memory bandwidth is reported against *effective* capacity:
        the paper notes DRAM bandwidth saturates at ≈70% of peak
        (Section 6.2), so utilization of 1.0 here means "at the
        practically achievable limit", matching how the paper reports
        its percentages against peak — callers can read both.
        """
        spec = self.spec
        memory_capacity = (
            self.usage.memory_resident_bytes / spec.memory_capacity_bytes
            if spec.memory_capacity_bytes
            else 0.0
        )
        return UtilizationReport(
            cpu=self.usage.cpu_cycles / spec.cpu_cycles_per_s,
            mem_bw=self.usage.mem_bytes / spec.mem_bw_bytes_per_s,
            nic_rx=self.usage.nic_rx_bytes / spec.nic_bytes_per_s,
            nic_tx=self.usage.nic_tx_bytes / spec.nic_bytes_per_s,
            memory_capacity=memory_capacity,
        )

    def max_sustainable_scale(self) -> float:
        """Largest multiplier of the current load the host can sustain.

        Memory bandwidth is limited to ``mem_bw_saturation`` of peak;
        the other resources saturate at 100%.  A value below 1.0 means
        the host is already oversubscribed.
        """
        report = self.utilization()
        limits = []
        if report.cpu > 0:
            limits.append(1.0 / report.cpu)
        if report.mem_bw > 0:
            limits.append(self.mem_bw_saturation / report.mem_bw)
        if report.nic_rx > 0:
            limits.append(1.0 / report.nic_rx)
        if report.nic_tx > 0:
            limits.append(1.0 / report.nic_tx)
        if report.memory_capacity > 0:
            limits.append(1.0 / report.memory_capacity)
        return min(limits) if limits else float("inf")
