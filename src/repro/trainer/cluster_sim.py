"""Data-parallel training clusters: synchronized trainers on shared DPP.

Section 2: trainers "synchronize embeddings, activations, and gradients
with each other using collective communication primitives ... iterating
until a certain model quality metric is reached."  Synchronous data
parallelism makes every iteration as slow as the *slowest* trainer —
so one under-fed node stalls the whole job, which is why DPP sizes its
fleet against aggregate demand plus imbalance.

The model here is iteration-level: each trainer needs one batch per
iteration; batch arrivals are governed by the per-trainer share of DPP
supply, and per-iteration collective sync adds a fixed cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigError


@dataclass(frozen=True)
class ClusterConfig:
    """One synchronous data-parallel job's shape."""

    n_trainers: int
    compute_time_s: float  # forward+backward per iteration
    sync_time_s: float  # collective communication per iteration
    batches_per_s_supplied: float  # aggregate DPP supply, all trainers
    supply_imbalance: float = 0.0  # coefficient of variation across trainers

    def __post_init__(self) -> None:
        if self.n_trainers < 1:
            raise ConfigError("need at least one trainer")
        if self.compute_time_s <= 0 or self.sync_time_s < 0:
            raise ConfigError("iteration times must be non-negative")
        if self.batches_per_s_supplied <= 0:
            raise ConfigError("supply must be positive")
        if not 0 <= self.supply_imbalance < 1:
            raise ConfigError("imbalance must be in [0, 1)")


@dataclass(frozen=True)
class ClusterThroughput:
    """Steady-state outcome of one configuration."""

    iterations_per_s: float
    ideal_iterations_per_s: float
    stall_fraction: float  # share of iteration time waiting for data

    @property
    def efficiency(self) -> float:
        """Achieved over ideal iteration rate."""
        return self.iterations_per_s / self.ideal_iterations_per_s


def simulate_cluster(
    config: ClusterConfig, n_iterations: int = 2_000, seed: int = 0
) -> ClusterThroughput:
    """Iteration-level simulation of a synchronous job.

    Each iteration: every trainer waits for its next batch (exponential
    inter-arrival around its supply share), then computes; the job
    syncs when the slowest trainer finishes.  The data wait overlaps
    nothing (mini-batch SGD consumes a fresh batch per iteration), so
    the iterations run as one sequential loop.
    """
    if n_iterations < 1:
        raise ConfigError("need at least one iteration")
    rng = np.random.default_rng(seed)
    per_trainer_supply = config.batches_per_s_supplied / config.n_trainers
    # Per-trainer mean supply rates with the configured imbalance.
    rates = per_trainer_supply * np.clip(
        rng.normal(1.0, config.supply_imbalance, size=config.n_trainers), 0.05, None
    )
    rates = rates / rates.mean() * per_trainer_supply  # preserve the aggregate
    ideal_iteration = config.compute_time_s + config.sync_time_s
    inv_rates = 1.0 / rates
    total_time = 0.0
    total_wait = 0.0
    for _ in range(n_iterations):
        waits = rng.exponential(inv_rates)
        data_wait = float(np.max(np.maximum(waits - ideal_iteration, 0.0)))
        total_wait += data_wait
        total_time += ideal_iteration + data_wait
    return ClusterThroughput(
        iterations_per_s=n_iterations / total_time,
        ideal_iterations_per_s=1.0 / ideal_iteration,
        stall_fraction=total_wait / total_time,
    )


def supply_for_efficiency(
    config: ClusterConfig, target_efficiency: float, seed: int = 0
) -> float:
    """Aggregate supply multiplier needed to reach *target_efficiency*.

    Binary-searches the supply scale; answers "how much headroom above
    nominal demand must DPP provision to absorb straggler effects" —
    the reason the controller targets non-zero buffers rather than
    supply == demand.
    """
    if not 0 < target_efficiency < 1:
        raise ConfigError("target efficiency must be in (0, 1)")
    low, high = 0.5, 64.0
    for _ in range(40):
        mid = (low + high) / 2
        scaled = ClusterConfig(
            n_trainers=config.n_trainers,
            compute_time_s=config.compute_time_s,
            sync_time_s=config.sync_time_s,
            batches_per_s_supplied=config.batches_per_s_supplied * mid,
            supply_imbalance=config.supply_imbalance,
        )
        outcome = simulate_cluster(scaled, n_iterations=500, seed=seed)
        if outcome.efficiency < target_efficiency:
            low = mid
        else:
            high = mid
    return high
