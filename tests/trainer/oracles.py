"""The event-driven body ``simulate_cluster`` had beside its loop.

``simulate_cluster(config, n_iterations, seed, clock=...)`` once ran
the job as a self-rescheduling process on a (possibly shared)
:class:`~repro.common.simclock.SimClock`; only a test drove it, so the
sequential loop is the one production path and this body is kept as
the reference it must agree with.
"""

import numpy as np

from repro.common.errors import ConfigError
from repro.trainer.cluster_sim import ClusterConfig, ClusterThroughput


def simulate_cluster_on_clock(
    config: ClusterConfig, n_iterations: int, seed: int, clock
) -> ClusterThroughput:
    """One iteration per clock event; foreign events on *clock* up to
    the job's end interleave, later ones stay for whoever drives the clock."""
    rng = np.random.default_rng(seed)
    per_trainer_supply = config.batches_per_s_supplied / config.n_trainers
    rates = per_trainer_supply * np.clip(
        rng.normal(1.0, config.supply_imbalance, size=config.n_trainers), 0.05, None
    )
    rates = rates / rates.mean() * per_trainer_supply
    ideal_iteration = config.compute_time_s + config.sync_time_s
    start = clock.now
    state = {"remaining": n_iterations, "wait": 0.0, "end": start}

    def iteration() -> None:
        waits = rng.exponential(1.0 / rates)
        data_wait = float(np.max(np.maximum(waits - ideal_iteration, 0.0)))
        state["wait"] += data_wait
        state["remaining"] -= 1
        if state["remaining"] > 0:
            clock.schedule(ideal_iteration + data_wait, iteration)
        else:
            clock.schedule(ideal_iteration + data_wait, finish)

    def finish() -> None:
        state["end"] = clock.now

    clock.schedule(0.0, iteration)
    while state["remaining"] > 0 or state["end"] == start:
        if not clock.step():
            raise ConfigError("clock drained before the job finished")
    total_time = state["end"] - start
    return ClusterThroughput(
        iterations_per_s=n_iterations / total_time,
        ideal_iterations_per_s=1.0 / ideal_iteration,
        stall_fraction=state["wait"] / total_time,
    )
