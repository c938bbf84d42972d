"""Trainer-host data loading: the "datacenter tax" resource model.

Section 6.2: even with preprocessing fully offloaded to DPP, loading
tensors over the network costs the trainer host real resources — the
network stack, memory management, TLS decryption, and Thrift
deserialization.  Figure 8 sweeps loading rate against host CPU and
memory-bandwidth utilization; the constants here are calibrated to its
anchor points (≈40% CPU and ≈55% memory bandwidth at RM1's 16.5 GB/s
on the two-socket test node).  Every study loads at these per-byte
costs.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..common.resources import HostModel, ResourceUsage, UtilizationReport
from ..workloads.hardware import TrainerNodeSpec

#: Host CPU cycles per loaded byte (network stack + TLS + Thrift).
LOADING_CYCLES_PER_BYTE = 3.39
#: DRAM traffic per loaded byte (TLS ~3x amplification + copies).
LOADING_MEM_BYTES_PER_BYTE = 5.0


def _usage_at_rate(bytes_per_s: float) -> ResourceUsage:
    """Steady-state host usage at a given loading rate."""
    if bytes_per_s < 0:
        raise ConfigError("loading rate cannot be negative")
    return ResourceUsage(
        cpu_cycles=LOADING_CYCLES_PER_BYTE * bytes_per_s,
        mem_bytes=LOADING_MEM_BYTES_PER_BYTE * bytes_per_s,
        nic_rx_bytes=bytes_per_s,
    )


def loading_utilization(node: TrainerNodeSpec, bytes_per_s: float) -> UtilizationReport:
    """Host utilization from data loading alone (the Figure 8 curves)."""
    host = HostModel(node.resource_spec())
    host.usage = _usage_at_rate(bytes_per_s)
    return host.utilization()


def max_loading_rate(node: TrainerNodeSpec) -> float:
    """Largest loading rate the host sustains before a resource saturates.

    Memory bandwidth is capped at its ~70% practical ceiling; CPU and
    NIC at 100%.
    """
    host = HostModel(node.resource_spec())
    host.usage = _usage_at_rate(1.0)
    return host.max_sustainable_scale()
