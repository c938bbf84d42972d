"""Fleet utilization traces: Figure 5's year of collaborative training.

Runs the release-process generator on a per-model cadence over a year
and accumulates daily trainer-node demand.  The resulting trace shows
the paper's signature shape: distinct peaks where multiple models'
combo windows overlap, against a floor of exploratory work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigError
from .job import TrainingJob
from .release import generate_release_iteration


@dataclass(frozen=True)
class ModelCadence:
    """One model's release rhythm over the simulated year."""

    model_name: str
    iteration_period_days: float = 42.0
    phase_days: float = 0.0  # offset of the first iteration


def simulate_year(
    cadences: list[ModelCadence], days: int = 365, seed: int = 0
) -> tuple[np.ndarray, list[TrainingJob]]:
    """Generate a year of jobs and the daily demand trace.

    Returns ``(daily_nodes, jobs)`` where ``daily_nodes[d]`` is total
    trainer nodes active on day *d* across all models.
    """
    if not cadences:
        raise ConfigError("need at least one model cadence")
    jobs: list[TrainingJob] = []
    for index, cadence in enumerate(cadences):
        start = cadence.phase_days
        iteration = 0
        while start < days:
            jobs.extend(
                generate_release_iteration(
                    cadence.model_name,
                    start,
                    seed=seed * 10_007 + index * 101 + iteration,
                ).jobs
            )
            start += cadence.iteration_period_days
            iteration += 1

    daily = np.zeros(days)
    for job in jobs:
        lo = max(0, int(np.floor(job.start_day)))
        hi = min(days, int(np.ceil(job.end_day)))
        if hi > lo:
            daily[lo:hi] += job.trainer_nodes
    return daily, jobs


def peak_to_median_ratio(daily_nodes: np.ndarray) -> float:
    """Figure 5's peakiness statistic: max demand over median demand."""
    median = float(np.median(daily_nodes))
    if median == 0:
        raise ConfigError("utilization trace has zero median demand")
    return float(daily_nodes.max()) / median
