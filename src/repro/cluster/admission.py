"""Combo-window admission control: capacity versus release latency.

Section 4.2: "Because these combo jobs are on the critical path of
model release, we must explicitly architect our datacenters with
sufficient storage, preprocessing, and training capacity to meet the
peak utilization of combo jobs."  This module quantifies the tradeoff:
when a region is provisioned below combo-peak demand, jobs queue, and
the queueing delay lands directly on the model-release critical path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..common.errors import SchedulingError
from .job import TrainingJob


@dataclass(frozen=True)
class AdmissionOutcome:
    """How one job fared under admission control."""

    job: TrainingJob
    admitted_day: float

    @property
    def queue_delay_days(self) -> float:
        """Days spent waiting for capacity."""
        return self.admitted_day - self.job.start_day


@dataclass
class AdmissionReport:
    """Fleet-level outcome of scheduling a job population."""

    outcomes: list[AdmissionOutcome]
    capacity_nodes: float

    @property
    def mean_queue_delay_days(self) -> float:
        """Average critical-path delay added by queueing."""
        if not self.outcomes:
            raise SchedulingError("no jobs were scheduled")
        return sum(o.queue_delay_days for o in self.outcomes) / len(self.outcomes)

    @property
    def p95_queue_delay_days(self) -> float:
        """Tail delay — what the slowest release candidates see."""
        delays = sorted(o.queue_delay_days for o in self.outcomes)
        return delays[int(0.95 * (len(delays) - 1))]

    @property
    def makespan_days(self) -> float:
        """Day the last job finishes."""
        return max(
            o.admitted_day + o.job.duration_days for o in self.outcomes
        )

    def utilization(self) -> float:
        """Node-days used over node-days provisioned across the makespan."""
        used = sum(o.job.node_days for o in self.outcomes)
        start = min(o.job.start_day for o in self.outcomes)
        provisioned = self.capacity_nodes * (self.makespan_days - start)
        return used / provisioned if provisioned else 0.0


def admit_jobs(jobs: list[TrainingJob], capacity_nodes: float) -> AdmissionReport:
    """FCFS admission of *jobs* into a region of *capacity_nodes*.

    Jobs are admitted in arrival order when enough nodes are free, and
    never before the job ahead of them (head-of-line blocking, as the
    fleet's queue admits); an oversized job (needing more than the
    region) is rejected outright.  Event-driven: releases are processed
    from a completion heap.
    """
    if capacity_nodes <= 0:
        raise SchedulingError("capacity must be positive")
    oversized = [job for job in jobs if job.trainer_nodes > capacity_nodes]
    if oversized:
        raise SchedulingError(
            f"{len(oversized)} job(s) exceed regional capacity "
            f"({capacity_nodes} nodes)"
        )
    free = capacity_nodes
    completions: list[tuple[float, float]] = []  # (finish_day, nodes)
    outcomes: list[AdmissionOutcome] = []
    now = float("-inf")
    for job in sorted(jobs, key=lambda j: j.start_day):
        now = max(now, job.start_day)
        # Release capacity from jobs that finished before this arrival.
        while completions and completions[0][0] <= now:
            _, nodes = heapq.heappop(completions)
            free += nodes
        # Wait for enough releases if the job does not fit yet.
        while free < job.trainer_nodes:
            if not completions:
                raise SchedulingError("capacity accounting corrupt")
            finish, nodes = heapq.heappop(completions)
            free += nodes
            now = max(now, finish)
        free -= job.trainer_nodes
        heapq.heappush(completions, (now + job.duration_days, job.trainer_nodes))
        outcomes.append(AdmissionOutcome(job, admitted_day=now))
    return AdmissionReport(outcomes, capacity_nodes)


def capacity_for_delay(
    jobs: list[TrainingJob],
    max_mean_delay_days: float,
    low: float | None = None,
    high: float | None = None,
) -> float:
    """Smallest capacity keeping mean queue delay under the target.

    Binary search over node counts — the provisioning question of
    Section 4.2 given one combo window's job population.
    """
    if max_mean_delay_days < 0:
        raise SchedulingError("delay target cannot be negative")
    peak = max(job.trainer_nodes for job in jobs)
    low = low if low is not None else float(peak)
    high = high if high is not None else float(
        sum(job.trainer_nodes for job in jobs)
    )
    for _ in range(40):
        mid = (low + high) / 2
        report = admit_jobs(jobs, mid)
        if report.mean_queue_delay_days > max_mean_delay_days:
            low = mid
        else:
            high = mid
    return high
