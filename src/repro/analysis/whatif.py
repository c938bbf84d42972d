"""What-if studies: the paper's forward-looking projections.

Section 6.1 projects online-preprocessing demand to grow 3.5× within
two years; Section 6.3 asks which resources bind as compute nodes
evolve; Section 7.1 asks what trainer hosts must provision.  These
functions answer: under grown demand, what does each model need per
trainer, which node generations can feed it, and where do trainer
hosts themselves give out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dpp.analytical import per_sample_cost, worker_throughput
from ..trainer.gpu import PROJECTED_GROWTH_FACTOR, GpuDemand
from ..trainer.host import max_loading_rate
from ..workloads.hardware import ComputeNodeSpec, TrainerNodeSpec
from ..workloads.models import ModelConfig


@dataclass(frozen=True)
class GrowthImpact:
    """One (model, node generation) cell of the projection study."""

    model: ModelConfig
    node: ComputeNodeSpec
    growth: float
    workers_per_trainer_now: float
    workers_per_trainer_grown: float
    bottleneck: str


def project_demand_growth(
    model: ModelConfig,
    node: ComputeNodeSpec,
    growth: float = PROJECTED_GROWTH_FACTOR,
) -> GrowthImpact:
    """Fleet impact of the Section 6.1 demand projection.

    Worker throughput is unchanged (same node, same model); the trainer
    pulls *growth*× more bytes, so the fleet scales linearly — unless
    the host itself saturates first (see :func:`trainer_host_headroom`).
    """
    throughput = worker_throughput(model, node)
    cost = per_sample_cost(model)
    demand_now = model.trainer_bytes_per_s / cost.tensor_tx_bytes
    workers_now = demand_now / throughput.qps
    return GrowthImpact(
        model=model,
        node=node,
        growth=growth,
        workers_per_trainer_now=workers_now,
        workers_per_trainer_grown=workers_now * growth,
        bottleneck=throughput.bottleneck,
    )


@dataclass(frozen=True)
class HostHeadroom:
    """Whether a trainer host can load a model's (grown) demand."""

    model: ModelConfig
    trainer: TrainerNodeSpec
    demand_bytes_per_s: float
    max_rate_bytes_per_s: float

    @property
    def feasible(self) -> bool:
        """True when the host can sustain the loading rate."""
        return self.demand_bytes_per_s <= self.max_rate_bytes_per_s

    @property
    def utilization(self) -> float:
        """Demand as a fraction of the host's loading ceiling."""
        return self.demand_bytes_per_s / self.max_rate_bytes_per_s


def trainer_host_headroom(
    model: ModelConfig,
    trainer: TrainerNodeSpec,
    growth: float = 1.0,
) -> HostHeadroom:
    """Can *trainer*'s host resources load *model* at *growth*× demand?

    This is the Section 7.1 question that drove ZionEX's four frontend
    NICs: provision enough host compute/memory/NIC for data loading.
    """
    demand = GpuDemand(model, growth).bytes_per_s
    return HostHeadroom(
        model=model,
        trainer=trainer,
        demand_bytes_per_s=demand,
        max_rate_bytes_per_s=max_loading_rate(trainer),
    )
