"""Cross-job DPP worker-pool scheduling under a power budget.

Section 3.2's DPP is *disaggregated*: preprocessing workers are fungible
nodes drawn from a shared pool, not resources glued to one job.  The
per-job scaling rule (:func:`~repro.dpp.autoscaler.scaling_decision`)
decides how many workers its session *wants*; :func:`allocate` extends
that control loop fleet-wide, arbitrating every session's request
against one bounded pool — ordered by release-process priority
(Section 4.1: release candidates > combo > exploratory) and max-min
fair within a priority tier.  A round is a pure function of the asks
and the pool size; nothing is kept between rounds.

The pool bound itself honors the datacenter power story (Figure 1 /
Section 7.5): a :class:`FleetPowerBudget` converts the watts left after
storage and the currently active trainers into the number of worker
nodes the region can actually energize; the fleet control loop caps
:attr:`PoolConfig.max_workers` by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster.job import JobKind
from ..common.errors import ConfigError
from ..workloads.hardware import C_V1, ComputeNodeSpec

#: Release-process priority: lower sorts first.
KIND_PRIORITY = {
    JobKind.RELEASE_CANDIDATE: 0,
    JobKind.COMBO: 1,
    JobKind.EXPLORATORY: 2,
}


@dataclass(frozen=True)
class PoolConfig:
    """Shape of the shared worker pool."""

    worker_node: ComputeNodeSpec = C_V1
    max_workers: int = 100_000
    spinup_s: float = 120.0  # container scheduling + transform-module pull

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ConfigError("pool needs at least one worker")
        if self.spinup_s < 0:
            raise ConfigError("spin-up time cannot be negative")


@dataclass(frozen=True)
class FleetPowerBudget:
    """Regional power accounting across the three DSI stages.

    The budget is fixed; storage draws constantly; trainers draw per
    active node; whatever remains can energize preprocessing workers.
    """

    budget_watts: float
    storage_watts: float
    trainer_node_watts: float
    worker_node_watts: float

    def __post_init__(self) -> None:
        if self.budget_watts <= 0 or self.worker_node_watts <= 0:
            raise ConfigError("budget and worker power must be positive")
        if self.storage_watts < 0 or self.trainer_node_watts < 0:
            raise ConfigError("component power cannot be negative")
        if self.storage_watts > self.budget_watts:
            raise ConfigError("storage alone exceeds the power budget")

    def worker_cap(self, active_trainer_nodes: int) -> int:
        """Workers the leftover watts can energize right now."""
        available = (
            self.budget_watts
            - self.storage_watts
            - active_trainer_nodes * self.trainer_node_watts
        )
        return max(0, math.floor(available / self.worker_node_watts))

    def draw_watts(self, active_trainer_nodes: int, workers: int) -> float:
        """Instantaneous fleet power at a given occupancy."""
        return (
            self.storage_watts
            + active_trainer_nodes * self.trainer_node_watts
            + workers * self.worker_node_watts
        )


def allocate(rows: list[tuple[int, int, int, int]], pool: int) -> dict[int, int]:
    """Grant integer worker counts against a pool of *pool* workers.

    *rows* are ``(priority, job_id, desired, minimum)`` tuples with
    unique job ids, priority a :data:`KIND_PRIORITY` rank (the fleet
    control loop holds each job's rank cached).  Two passes: first
    every job's *minimum* in priority order (a job starved of even its
    floor is a scheduling failure the admission layer should have
    prevented); then, tier by tier, integer water-filling toward each
    job's *desired* — the fleet-wide generalization of the per-job
    scale-up step.  The round is a pure function of its arguments.
    """
    granted: dict[int, int] = {}
    if not rows:
        return granted
    rows = sorted(rows)
    remaining = pool
    for _priority, job_id, _desired, minimum in rows:
        floor = minimum if minimum < remaining else remaining
        granted[job_id] = floor
        remaining -= floor
    # Water-fill within each priority tier (a consecutive run of the
    # sorted rows) until desires or the pool are exhausted.
    start = 0
    n = len(rows)
    while start < n and remaining > 0:
        stop = start
        priority = rows[start][0]
        while stop < n and rows[stop][0] == priority:
            stop += 1
        remaining = _fill_tier(rows[start:stop], granted, remaining)
        start = stop
    return granted


def _fill_tier(
    rows: list[tuple[int, int, int, int]], granted: dict[int, int], pool: int
) -> int:
    """Integer max-min water-filling of one priority tier."""
    while pool > 0:
        unmet = [r for r in rows if granted[r[1]] < r[2]]
        if not unmet:
            break
        share = max(1, pool // len(unmet))
        progressed = False
        for _priority, job_id, desired, _minimum in unmet:
            if pool <= 0:
                break
            grant = min(share, desired - granted[job_id], pool)
            if grant > 0:
                granted[job_id] += grant
                pool -= grant
                progressed = True
        if not progressed:
            break
    return pool
