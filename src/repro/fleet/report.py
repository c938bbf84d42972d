"""Fleet-level outcome reporting.

One :class:`FleetReport` per simulation: per-job outcomes (queue delay,
achieved throughput, slowdown versus the uncontended ideal, stall
share) plus a tick-level utilization trace of the shared resources
(storage bandwidth, the worker pool, power).  Rendering reuses the
:mod:`repro.analysis.report` table style so fleet results read like the
paper-table benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..cluster.job import JobKind
from ..common.errors import SchedulingError
from ..common.serialization import (
    ReportBase,
    record_from_row,
    record_row,
    record_rows,
    rows_of,
)
from ..workloads.models import model_by_name
from .jobs import FleetJobSpec


@dataclass
class JobOutcome:
    """How one job fared on the shared fleet."""

    spec: FleetJobSpec
    admitted_s: float
    completed_s: float | None = None
    samples_done: float = 0.0
    stall_s: float = 0.0
    worker_seconds: float = 0.0
    granted_bytes: float = 0.0

    @property
    def queue_delay_s(self) -> float:
        """Seconds spent waiting for trainer capacity."""
        return self.admitted_s - self.spec.arrival_s

    @property
    def finished(self) -> bool:
        """Whether the job reached its sample target."""
        return self.completed_s is not None

    @property
    def active_s(self) -> float:
        """Seconds between admission and completion."""
        if self.completed_s is None:
            raise SchedulingError(f"job {self.spec.job_id} did not finish")
        return self.completed_s - self.admitted_s

    @property
    def achieved_samples_per_s(self) -> float:
        """Mean trained-sample throughput while active."""
        return self.samples_done / self.active_s if self.active_s > 0 else 0.0

    @property
    def slowdown(self) -> float:
        """Active time over the uncontended ideal duration (>= ~1)."""
        return self.active_s / self.spec.ideal_duration_s

    @property
    def stall_fraction(self) -> float:
        """Share of active time the trainers sat data-starved."""
        return self.stall_s / self.active_s if self.active_s > 0 else 0.0

    @property
    def mean_workers(self) -> float:
        """Average DPP workers held while active."""
        return self.worker_seconds / self.active_s if self.active_s > 0 else 0.0

    def to_row(self) -> dict:
        """JSON-ready row.  The job's model is recorded *by name* —
        fleet traces draw from the paper's RM catalog, and embedding
        the full hardware-profile tree per job would dwarf the row."""
        return record_row(
            self,
            spec=lambda spec: record_row(
                spec, model=lambda model: model.name, kind=lambda kind: kind.value
            ),
        )

    @classmethod
    def from_row(cls, row: dict) -> "JobOutcome":
        """Rebuild from :meth:`to_row` output (strict keys)."""
        return record_from_row(
            cls,
            row,
            "fleet job outcome",
            spec=lambda spec: record_from_row(
                FleetJobSpec,
                spec,
                "fleet job spec",
                model=model_by_name,
                kind=JobKind,
            ),
        )


@dataclass(frozen=True)
class FleetSample:
    """One tick's observation of the shared plane."""

    time_s: float
    active_jobs: int
    queued_jobs: int
    live_workers: int
    pending_workers: int
    supply_samples_per_s: float
    demand_samples_per_s: float
    granted_bytes_per_s: float
    storage_utilization: float
    power_watts: float


@dataclass
class FleetReport(ReportBase):
    """Everything a fleet run produced."""

    report_kind = "fleet"

    outcomes: list[JobOutcome]
    samples: list[FleetSample]
    storage_bandwidth_bytes_per_s: float
    makespan_s: float = field(default=0.0)
    # Waits of jobs that arrived but were never admitted (horizon cut):
    # lower bounds, since those jobs were still queued at snapshot time.
    unadmitted_queue_delays_s: list[float] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------------

    def finished_outcomes(self) -> list[JobOutcome]:
        """Outcomes of jobs that completed inside the horizon."""
        return [o for o in self.outcomes if o.finished]

    @property
    def jobs_completed(self) -> int:
        """Jobs that reached their sample target."""
        return len(self.finished_outcomes())

    @property
    def peak_concurrency(self) -> int:
        """Most jobs simultaneously active."""
        return max((s.active_jobs for s in self.samples), default=0)

    @property
    def aggregate_samples_per_s(self) -> float:
        """Fleet-wide trained samples per second of makespan."""
        if self.makespan_s <= 0:
            raise SchedulingError("report has no makespan")
        return sum(o.samples_done for o in self.outcomes) / self.makespan_s

    @property
    def mean_storage_utilization(self) -> float:
        """Mean granted share of fabric bandwidth across busy ticks."""
        busy = [s for s in self.samples if s.active_jobs > 0]
        if not busy:
            return 0.0
        return sum(s.storage_utilization for s in busy) / len(busy)

    @property
    def peak_storage_utilization(self) -> float:
        """Highest granted share of fabric bandwidth."""
        return max((s.storage_utilization for s in self.samples), default=0.0)

    @property
    def mean_slowdown(self) -> float:
        """Average contention slowdown across finished jobs."""
        finished = self.finished_outcomes()
        if not finished:
            raise SchedulingError("no job finished")
        return sum(o.slowdown for o in finished) / len(finished)

    @property
    def jobs_submitted(self) -> int:
        """Jobs that arrived, admitted or still queued."""
        return len(self.outcomes) + len(self.unadmitted_queue_delays_s)

    @property
    def p95_queue_delay_s(self) -> float:
        """Tail admission delay — the release-critical-path number.

        Includes still-queued jobs at their accrued (lower-bound)
        waits, so a saturated region's tail is not censored away.
        """
        delays = sorted(
            [o.queue_delay_s for o in self.outcomes]
            + list(self.unadmitted_queue_delays_s)
        )
        if not delays:
            raise SchedulingError("report has no jobs")
        # Ceiling index: small populations report their worst wait
        # rather than censoring the tail.
        return delays[math.ceil(0.95 * (len(delays) - 1))]

    def throughput_by_job(self) -> dict[int, float]:
        """job_id -> achieved samples/s, finished jobs only."""
        return {
            o.spec.job_id: o.achieved_samples_per_s for o in self.finished_outcomes()
        }

    # -- shared telemetry surface ----------------------------------------------

    def payload(self) -> dict:
        return record_row(
            self,
            outcomes=lambda outcomes: [o.to_row() for o in outcomes],
            samples=record_rows,
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetReport":
        return record_from_row(
            cls,
            payload,
            "fleet report",
            outcomes=lambda rows: [JobOutcome.from_row(row) for row in rows],
            samples=rows_of(FleetSample, "fleet tick sample"),
        )

    def metrics(self) -> dict[str, float]:
        """Uniform fleet summary (nan where an aggregate is undefined)."""
        finished = self.finished_outcomes()
        return {
            "fleet.jobs_submitted": float(self.jobs_submitted),
            "fleet.jobs_completed": float(self.jobs_completed),
            "fleet.peak_concurrency": float(self.peak_concurrency),
            "fleet.makespan_s": self.makespan_s,
            "fleet.aggregate_samples_per_s": (
                self.aggregate_samples_per_s if self.makespan_s > 0 else math.nan
            ),
            "fleet.mean_slowdown": self.mean_slowdown if finished else math.nan,
            "fleet.mean_stall_fraction": (
                sum(o.stall_fraction for o in finished) / len(finished)
                if finished
                else math.nan
            ),
            "fleet.p95_queue_delay_s": (
                self.p95_queue_delay_s if self.jobs_submitted else math.nan
            ),
            "fleet.mean_storage_utilization": self.mean_storage_utilization,
            "fleet.peak_storage_utilization": self.peak_storage_utilization,
            "fleet.peak_power_watts": max(
                (s.power_watts for s in self.samples), default=0.0
            ),
        }

    def render(self, title: str = "Fleet simulation") -> str:
        """Per-job table plus the shared-resource summary block."""
        rows = []
        for outcome in sorted(self.outcomes, key=lambda o: o.spec.job_id):
            spec = outcome.spec
            done = outcome.finished
            rows.append(
                [
                    spec.job_id,
                    spec.model.name,
                    spec.kind.value,
                    spec.trainer_nodes,
                    f"{spec.arrival_s:.0f}",
                    f"{outcome.queue_delay_s:.0f}",
                    f"{outcome.achieved_samples_per_s / 1e6:.3f}" if done else "-",
                    f"{outcome.slowdown:.2f}" if done else "running",
                    f"{outcome.stall_fraction:.0%}" if done else "-",
                    f"{outcome.mean_workers:.0f}" if done else "-",
                ]
            )
        table = render_table(
            [
                "job",
                "model",
                "kind",
                "trainers",
                "arrive_s",
                "queue_s",
                "Msamp/s",
                "slowdown",
                "stalled",
                "workers",
            ],
            rows,
            title=title,
        )
        never_admitted = (
            f" ({len(self.unadmitted_queue_delays_s)} never admitted)"
            if self.unadmitted_queue_delays_s
            else ""
        )
        summary = [
            f"jobs: {self.jobs_submitted} submitted{never_admitted}, "
            f"{self.jobs_completed} completed, "
            f"peak concurrency {self.peak_concurrency}",
            f"storage bandwidth: {self.mean_storage_utilization:.0%} mean / "
            f"{self.peak_storage_utilization:.0%} peak of "
            f"{self.storage_bandwidth_bytes_per_s / 1e9:.0f} GB/s fabric",
        ]
        if self.finished_outcomes():
            summary.insert(1, f"mean contention slowdown: {self.mean_slowdown:.2f}x")
        if self.makespan_s > 0:
            summary.insert(
                1,
                "aggregate DPP throughput: "
                f"{self.aggregate_samples_per_s / 1e6:.2f} Msamples/s",
            )
        if self.jobs_submitted:
            summary.append(
                f"p95 queue delay: {self.p95_queue_delay_s:.0f} s; "
                f"makespan {self.makespan_s:.0f} s"
            )
        return table + "\n" + "\n".join(summary)
