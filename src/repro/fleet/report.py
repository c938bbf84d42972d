"""Fleet-level outcome reporting.

One :class:`FleetReport` per simulation: per-job outcomes (queue delay,
achieved throughput, slowdown versus the uncontended ideal, stall
share) plus a tick-level utilization trace of the shared resources
(storage bandwidth, the worker pool, power).  Rendering reuses the
:mod:`repro.analysis.report` table style so fleet results read like the
paper-table benchmarks.

:func:`reduce_run` is the one reduction of a run to its eleven
aggregates: the report's aggregate properties and :meth:`~FleetReport.
metrics`, the simulator's flat sweep summary and the blank sweep cell
all read it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter

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


def reduce_run(
    observations: Iterable[tuple[int, float, float]],
    outcomes: list[JobOutcome],
    unadmitted_queue_delays_s: list[float],
    makespan_s: float,
) -> dict:
    """A run's eleven aggregates, in one pass over its sample rows.

    *observations* are each tick's ``(active_jobs, storage_utilization,
    power_watts)``; *outcomes* are the admitted jobs in job-id order and
    *unadmitted_queue_delays_s* the accrued waits of jobs still queued.
    ``nan`` marks a ratio with nothing to divide by (no makespan, no
    finished job, no job at all), so an empty run reduces to the blank
    sweep cell.
    """
    peak_concurrency = 0
    peak_util = 0.0
    peak_power = 0.0
    busy_util_sum = 0.0
    busy_count = 0
    for active, util, power in observations:
        if active > peak_concurrency:
            peak_concurrency = active
        if util > peak_util:
            peak_util = util
        if power > peak_power:
            peak_power = power
        if active > 0:
            busy_util_sum += util
            busy_count += 1
    finished = [o for o in outcomes if o.finished]
    # Still-queued jobs count at their accrued (lower-bound) waits, so
    # a saturated region's tail is not censored away.
    delays = sorted(
        [o.queue_delay_s for o in outcomes] + list(unadmitted_queue_delays_s)
    )
    return {
        "jobs_submitted": len(outcomes) + len(unadmitted_queue_delays_s),
        "jobs_completed": len(finished),
        "peak_concurrency": peak_concurrency,
        "makespan_s": makespan_s,
        "aggregate_samples_per_s": (
            sum(o.samples_done for o in outcomes) / makespan_s
            if makespan_s > 0
            else math.nan
        ),
        "mean_slowdown": (
            sum(o.slowdown for o in finished) / len(finished)
            if finished
            else math.nan
        ),
        "mean_stall_fraction": (
            sum(o.stall_fraction for o in finished) / len(finished)
            if finished
            else math.nan
        ),
        # Ceiling index: small populations report their worst wait
        # rather than censoring the tail.
        "p95_queue_delay_s": (
            delays[math.ceil(0.95 * (len(delays) - 1))] if delays else math.nan
        ),
        "mean_storage_utilization": (
            busy_util_sum / busy_count if busy_count else 0.0
        ),
        "peak_storage_utilization": peak_util,
        "peak_power_watts": peak_power,
    }


#: A :class:`FleetSample`'s fields that :func:`reduce_run` reads.
_OBSERVED = attrgetter("active_jobs", "storage_utilization", "power_watts")


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

    def aggregates(self) -> dict:
        """The run's eleven aggregates (:func:`reduce_run`)."""
        return reduce_run(
            map(_OBSERVED, self.samples),
            self.outcomes,
            self.unadmitted_queue_delays_s,
            self.makespan_s,
        )

    def finished_outcomes(self) -> list[JobOutcome]:
        """Outcomes of jobs that completed inside the horizon."""
        return [o for o in self.outcomes if o.finished]

    @property
    def jobs_submitted(self) -> int:
        """Jobs that arrived, admitted or still queued."""
        return self.aggregates()["jobs_submitted"]

    @property
    def jobs_completed(self) -> int:
        """Jobs that reached their sample target."""
        return self.aggregates()["jobs_completed"]

    @property
    def peak_concurrency(self) -> int:
        """Most jobs simultaneously active."""
        return self.aggregates()["peak_concurrency"]

    @property
    def aggregate_samples_per_s(self) -> float:
        """Fleet-wide trained samples per second of makespan."""
        if self.makespan_s <= 0:
            raise SchedulingError("report has no makespan")
        return self.aggregates()["aggregate_samples_per_s"]

    @property
    def mean_storage_utilization(self) -> float:
        """Mean granted share of fabric bandwidth across busy ticks."""
        return self.aggregates()["mean_storage_utilization"]

    @property
    def peak_storage_utilization(self) -> float:
        """Highest granted share of fabric bandwidth."""
        return self.aggregates()["peak_storage_utilization"]

    @property
    def mean_slowdown(self) -> float:
        """Average contention slowdown across finished jobs."""
        aggregates = self.aggregates()
        if not aggregates["jobs_completed"]:
            raise SchedulingError("no job finished")
        return aggregates["mean_slowdown"]

    @property
    def p95_queue_delay_s(self) -> float:
        """Tail admission delay — the release-critical-path number,
        still-queued jobs included at their accrued waits."""
        aggregates = self.aggregates()
        if not aggregates["jobs_submitted"]:
            raise SchedulingError("report has no jobs")
        return aggregates["p95_queue_delay_s"]

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
        return {
            f"fleet.{name}": float(value)
            for name, value in self.aggregates().items()
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
        aggregates = self.aggregates()
        summary = [
            f"jobs: {aggregates['jobs_submitted']} submitted{never_admitted}, "
            f"{aggregates['jobs_completed']} completed, "
            f"peak concurrency {aggregates['peak_concurrency']}",
            f"storage bandwidth: {aggregates['mean_storage_utilization']:.0%} "
            f"mean / {aggregates['peak_storage_utilization']:.0%} peak of "
            f"{self.storage_bandwidth_bytes_per_s / 1e9:.0f} GB/s fabric",
        ]
        if aggregates["jobs_completed"]:
            summary.insert(
                1,
                "mean contention slowdown: "
                f"{aggregates['mean_slowdown']:.2f}x",
            )
        if self.makespan_s > 0:
            throughput = aggregates["aggregate_samples_per_s"] / 1e6
            summary.insert(
                1, f"aggregate DPP throughput: {throughput:.2f} Msamples/s"
            )
        if aggregates["jobs_submitted"]:
            summary.append(
                f"p95 queue delay: {aggregates['p95_queue_delay_s']:.0f} s; "
                f"makespan {self.makespan_s:.0f} s"
            )
        return table + "\n" + "\n".join(summary)
