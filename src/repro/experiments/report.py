"""Sweep aggregation: from many fleet runs to percentile surfaces.

Each scenario reduces to one flat :class:`ScenarioResult` in its worker
process (a :class:`~repro.fleet.report.FleetReport` carries full
per-tick traces — far too heavy to ship back for hundreds of
scenarios).  :class:`SweepReport` then groups results by grid cell and
lays percentile surfaces over the seed axis: the throughput / stall /
power / queue-delay distributions the paper's provisioning sections
argue from.  Rendering reuses the :mod:`repro.analysis.report` table
style, and the report speaks the shared
:class:`~repro.common.serialization.ReportBase` telemetry surface so
sweeps archive, revive and diff like every other report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..common.errors import ConfigError
from ..common.serialization import (
    ReportBase,
    dump_json,
    null_specials,
    percentile_summary,
    record_from_row,
    record_row,
    require_keys,
)
from ..fleet.report import reduce_run

#: The metrics a cell surface summarizes, in render order.
CELL_METRICS = (
    "aggregate_samples_per_s",
    "mean_slowdown",
    "mean_stall_fraction",
    "p95_queue_delay_s",
    "peak_power_watts",
    "peak_storage_utilization",
)


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's outcome, flattened for cheap pickling.

    Ratio metrics that need at least one finished job are ``nan`` when
    the horizon cut every job short — ``nan`` survives JSON round-trips
    (serialized as ``null``) and percentile math skips it.
    """

    name: str
    cell: str
    trace_seed: int
    jobs_submitted: int
    jobs_completed: int
    peak_concurrency: int
    makespan_s: float
    aggregate_samples_per_s: float
    mean_slowdown: float
    mean_stall_fraction: float
    p95_queue_delay_s: float
    mean_storage_utilization: float
    peak_storage_utilization: float
    peak_power_watts: float
    events_fired: int
    wall_s: float
    status: str = "ok"  # "ok" | "quarantined"
    error: str = ""  # deterministic failure detail when quarantined

    @classmethod
    def blank(
        cls,
        name: str,
        cell: str,
        trace_seed: int,
        wall_s: float = 0.0,
        status: str = "ok",
        error: str = "",
    ) -> "ScenarioResult":
        """A cell that ran no jobs: the reduction of an empty run (zero
        counts, ``nan`` ratios).

        As it stands it is the legal zero-arrival cell (reported rather
        than poisoning the whole sweep).  With ``status="quarantined"``
        and the deterministic failure detail in *error* it is a poison
        cell, so the sweep reports the loss instead of aborting; leave
        *wall_s* at zero there — a crash's elapsed time is not
        reproducible and must not leak into the byte-identity contract.
        """
        return cls(
            name=name,
            cell=cell,
            trace_seed=trace_seed,
            events_fired=0,
            wall_s=wall_s,
            status=status,
            error=error,
            **reduce_run((), [], [], 0.0),
        )

    def to_row(self) -> dict:
        return record_row(self)

    @classmethod
    def from_row(cls, row: dict) -> "ScenarioResult":
        # status / error (the only defaulted fields) are optional so
        # pre-quarantine report artifacts still revive.
        return record_from_row(cls, row, "sweep scenario result", optional=True)


@dataclass
class SweepReport(ReportBase):
    """Results of one sweep, plus the aggregation surfaces over them."""

    report_kind = "sweep"

    results: list[ScenarioResult]
    grid_name: str = "sweep"
    total_wall_s: float = 0.0
    jobs: int = 1  # process fan-out the sweep ran with
    # Nothing in src/ writes extras any more; benchmarks/dsi still reads it.
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonical order: aggregation must not depend on completion
        # order across worker processes.
        self.results = sorted(self.results, key=lambda result: result.name)

    @property
    def quarantined(self) -> list[ScenarioResult]:
        """Cells whose scenario raised, in name order."""
        return [r for r in self.results if r.status == "quarantined"]

    def deterministic_payload(self) -> dict:
        """The payload with every wall-clock field neutralized.

        Wall time and the fan-out width are the legitimately
        execution-dependent surfaces in an artifact; zeroing
        ``total_wall_s``, ``jobs``, and per-cell ``wall_s`` leaves
        exactly the bytes the determinism contract covers — serial ==
        pooled == crashed-and-resumed.  Quarantine statuses and error
        details *are* covered: a poison cell quarantines identically
        every run.
        """
        payload = self.payload()
        payload["total_wall_s"] = 0.0
        payload["jobs"] = 0
        for row in payload["scenarios"]:
            row["wall_s"] = 0.0
        return payload

    def deterministic_json(self) -> str:
        """Canonical JSON of :meth:`deterministic_payload` — the string
        byte-identity tests and the CI resume-smoke compare."""
        return dump_json(
            null_specials(
                {
                    "report": self.report_kind,
                    "payload": self.deterministic_payload(),
                }
            )
        )

    # -- aggregation -----------------------------------------------------------

    @property
    def cells(self) -> list[str]:
        """Grid cells (mix/config/faults) in deterministic order."""
        seen: dict[str, None] = {}
        for result in self.results:
            seen.setdefault(result.cell, None)
        return list(seen)

    def cell_results(self, cell: str) -> list[ScenarioResult]:
        """All seeds' results for one grid cell."""
        matches = [r for r in self.results if r.cell == cell]
        if not matches:
            raise ConfigError(f"unknown sweep cell {cell!r}")
        return matches

    def surface(self, metric: str) -> dict[str, dict[str, float]]:
        """Percentiles of *metric* across seeds, per grid cell.

        Returns ``{cell: {"p50": ..., "p90": ..., "p100": ...,
        "mean": ...}}``, skipping ``nan`` observations (scenarios where
        the metric was undefined).
        """
        if metric not in CELL_METRICS:
            raise ConfigError(
                f"unknown surface metric {metric!r}; choose from {CELL_METRICS}"
            )
        return {
            cell: percentile_summary(
                getattr(result, metric) for result in self.cell_results(cell)
            )
            for cell in self.cells
        }

    @property
    def scenarios_per_s(self) -> float:
        """Sweep throughput against wall time (the fan-out payoff)."""
        if self.total_wall_s <= 0:
            raise ConfigError("sweep recorded no wall time")
        return len(self.results) / self.total_wall_s

    # -- shared telemetry surface ----------------------------------------------

    def payload(self) -> dict:
        return {
            "grid_name": self.grid_name,
            "jobs": self.jobs,
            "total_wall_s": round(self.total_wall_s, 3),
            "scenarios": [result.to_row() for result in self.results],
            "surfaces": {
                metric: self.surface(metric) for metric in CELL_METRICS
            },
            "extras": self.extras,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepReport":
        require_keys(
            payload,
            required=("scenarios",),
            optional=("grid_name", "jobs", "total_wall_s", "surfaces", "extras"),
            context="sweep report",
        )
        return cls(
            results=[
                ScenarioResult.from_row(row) for row in payload["scenarios"]
            ],
            grid_name=payload.get("grid_name", "sweep"),
            total_wall_s=payload.get("total_wall_s", 0.0),
            jobs=payload.get("jobs", 1),
            extras=payload.get("extras", {}),
        )

    def metrics(self) -> dict[str, float]:
        return {
            "sweep.scenarios": float(len(self.results)),
            "sweep.cells": float(len(self.cells)),
            "sweep.jobs_submitted": float(
                sum(r.jobs_submitted for r in self.results)
            ),
            "sweep.jobs_completed": float(
                sum(r.jobs_completed for r in self.results)
            ),
            "sweep.total_wall_s": self.total_wall_s,
            "sweep.quarantined": float(len(self.quarantined)),
        }

    # -- rendering -------------------------------------------------------------

    def render(self, title: str | None = None) -> str:
        """Per-cell percentile table plus the sweep summary block."""
        rows = []
        throughput = self.surface("aggregate_samples_per_s")
        stall = self.surface("mean_stall_fraction")
        delay = self.surface("p95_queue_delay_s")
        power = self.surface("peak_power_watts")
        for cell in self.cells:
            cell_rows = self.cell_results(cell)
            rows.append(
                [
                    cell,
                    len(cell_rows),
                    f"{sum(r.jobs_completed for r in cell_rows)}"
                    f"/{sum(r.jobs_submitted for r in cell_rows)}",
                    _fmt(throughput[cell]["p50"], 1e6, "{:.3f}"),
                    _fmt(throughput[cell]["p90"], 1e6, "{:.3f}"),
                    _fmt(stall[cell]["p90"], 0.01, "{:.0f}%"),
                    _fmt(delay[cell]["p90"], 1.0, "{:.0f}"),
                    _fmt(power[cell]["p100"], 1e3, "{:.0f}"),
                ]
            )
        table = render_table(
            [
                "cell",
                "seeds",
                "done",
                "p50 Msamp/s",
                "p90 Msamp/s",
                "p90 stall",
                "p90 queue_s",
                "peak kW",
            ],
            rows,
            title=title or f"Scenario sweep: {self.grid_name}",
        )
        summary = [
            f"scenarios: {len(self.results)} across {len(self.cells)} cells",
        ]
        if self.quarantined:
            names = ", ".join(r.name for r in self.quarantined[:3])
            if len(self.quarantined) > 3:
                names += ", ..."
            summary.append(
                f"quarantined: {len(self.quarantined)} poison cell(s) — {names}"
            )
        if self.total_wall_s > 0:
            summary.append(
                f"wall time: {self.total_wall_s:.1f} s with {self.jobs} "
                f"process(es) — {self.scenarios_per_s:.2f} scenarios/s"
            )
        return table + "\n" + "\n".join(summary)


def _fmt(value: float, scale: float, pattern: str) -> str:
    """Render one surface entry, dashing out undefined cells."""
    if math.isnan(value):
        return "-"
    return pattern.format(value / scale)
