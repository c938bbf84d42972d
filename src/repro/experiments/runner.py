"""The experiment executor: one engine, two front-ends.

:func:`fan_out` is the engine — "apply a function to every item,
inline or across the persistent self-healing pool
(:mod:`repro.experiments.pool`), and report completed index ranges" —
and the only place that chooses between the two.  The runners are
front-ends that pick the cell function and what to do with the
outcomes:

* :class:`SweepRunner` — the fleet grid: a cell runs
  ``grid.scenario_at(index)`` and returns its flat
  :class:`~repro.experiments.report.ScenarioResult`, which the parent
  slots into the :class:`~repro.experiments.report.SweepReport` at its
  grid index.  It also speaks the run-journal protocol
  (:mod:`repro.experiments.journal`): pass ``journal_path`` and every
  completed chunk of cells is durably logged, pass ``resume=True`` and
  a killed sweep picks up where it stopped — with a final report
  byte-identical (modulo wall clock) to a run that was never
  interrupted.
* :class:`ExperimentRunner` — any mix of registered scenario kinds
  (fleet regions, chaos sessions, timed DPP simulations, serving load
  tests): a cell returns the scenario's full report and the batch
  collects them into an :class:`ExperimentReport`, whose JSON embeds
  every child report envelope.

Tracing is an argument, not a second entry point: ``run(trace=True)``
on either runner returns ``(report, merged trace)``.

Both rely on the scenario contract: every scenario seeds itself and
reports sort canonically before aggregation — process scheduling can
never leak into the artifact.  Both inherit the pool's fault tolerance:
dead workers respawn, their chunks retry, and isolated poison cells
quarantine as failed results instead of aborting the campaign.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..common.errors import ConfigError
from ..common.serialization import ReportBase, record_from_row, record_row
from ..telemetry.tracer import Trace, Tracer, merge_traces
from .base import Scenario
from .grid import ScenarioGrid
from .journal import RunJournal
from .pool import (
    PoolPolicy,
    PoolStats,
    auto_chunk_size,
    fork_available,
    run_chunked,
)
from .report import BatchReport, FailureReport, ScenarioResult, SweepReport
from .scenarios import FleetRegionScenario, MAX_EVENTS_PER_SCENARIO

#: ``progress(done, total)`` — called after each completed item.
ProgressFn = Callable[[int, int], None]


def fan_out(
    items: Sequence,
    fn: Callable,
    jobs: int,
    progress: ProgressFn | None = None,
    chunk_size: int | None = None,
    policy: PoolPolicy | None = None,
    on_item_failed: Callable[[int, str], object] | None = None,
    stats: PoolStats | None = None,
    on_chunk: Callable[[int, int, list], None] | None = None,
) -> list:
    """Apply *fn* over *items*, inline or across persistent workers.

    ``jobs=1`` (or a single item, or a platform without the ``fork``
    start method) runs inline — no pool overhead, easiest to debug,
    what CI determinism tests use.  Otherwise items ship to long-lived
    forked workers in index chunks (*chunk_size* cells per task,
    auto-tuned from the batch size and *jobs* when None); *items* and
    *fn* are inherited by the fork, never pickled, and each chunk's
    results come back pickled in one message.  Both arms refuse
    ``jobs < 1`` and ``chunk_size < 1`` alike.
    Results come back in input order regardless of engine, jobs, or
    chunk size, so fan-out width cannot reorder them.

    *progress* is called after each item finishes — in completion
    order, which process scheduling may permute; only the counts are
    meaningful, never an item identity.

    *on_chunk* observes finished work as index ranges:
    ``on_chunk(start, stop, values)`` once every item in the range is
    done, with ``values`` the range's results — the point where a
    caller makes a batch of results durable.  The inline arm walks the
    same ranges the pool would chunk at; when an exception or interrupt
    cuts one short, the finished prefix is still reported before the
    exception propagates.  Every index that finishes is covered exactly
    once; a quarantined index never is.

    Fault tolerance (see :func:`~repro.experiments.pool.run_chunked`):
    with *on_item_failed* a poison item — one that keeps raising or
    killing its worker past *policy*'s retry budget — is quarantined:
    ``on_item_failed(index, detail)`` is called the moment the item is
    isolated, supplies the replacement value for its result slot, and
    the batch completes.  Without it failures re-raise (the fail-fast
    contract).  The inline path honors the same hook for in-process
    exceptions, so ``jobs=1`` and ``jobs=N`` quarantine identically.
    *stats*, when provided, accumulates the pool's incident counters.
    """
    if jobs < 1:
        raise ConfigError("fan_out needs at least one worker process")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError("chunk size must be at least one item")
    n_items = len(items)
    if n_items == 0:
        return []
    size = chunk_size if chunk_size is not None else auto_chunk_size(n_items, jobs)
    if jobs == 1 or n_items == 1 or not fork_available():
        results: list = []
        reported = 0  # every finished index below this has been reported

        def report(stop: int) -> None:
            nonlocal reported
            if on_chunk is not None and stop > reported:
                on_chunk(reported, stop, results[reported:stop])
            reported = stop

        try:
            for index, item in enumerate(items):
                try:
                    results.append(fn(item))
                except Exception as exc:
                    if on_item_failed is None:
                        raise
                    report(index)
                    if stats is not None:
                        stats.quarantined_cells += 1
                    results.append(
                        on_item_failed(index, f"{type(exc).__name__}: {exc}")
                    )
                    reported = index + 1
                if (index + 1) % size == 0:
                    report(index + 1)
                if progress is not None:
                    progress(index + 1, n_items)
        finally:
            # Finished-but-unreported items are handed over even when an
            # exception or interrupt cuts the loop short.
            report(len(results))
        return results
    results = [None] * n_items

    def work(start: int, stop: int, cell_done) -> list:
        chunk = []
        for index in range(start, stop):
            chunk.append(fn(items[index]))
            if cell_done is not None:
                cell_done(index)
        return chunk

    def quarantine(index: int, detail: str) -> None:
        results[index] = on_item_failed(index, detail)

    def chunk_done(start: int, stop: int, values: list) -> None:
        results[start:stop] = values
        if on_chunk is not None:
            on_chunk(start, stop, values)

    run_chunked(
        work,
        n_items,
        jobs=jobs,
        chunk_size=size,
        progress=progress,
        policy=policy,
        stats=stats,
        on_cell_failed=None if on_item_failed is None else quarantine,
        on_chunk=chunk_done,
    )
    return results


def _resolve_jobs(jobs: int | None) -> int:
    """Worker process count; ``None`` means one per CPU core."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError("a runner needs at least one worker process")
    return jobs


def _traced(run: Callable, scenario) -> tuple[object, Trace]:
    """``run(scenario, tracer)`` under a tracer built *here*.

    Tracers never cross a process boundary: each call builds its own in
    the executing process and freezes it into a picklable
    :class:`~repro.telemetry.tracer.Trace` for the trip back.
    """
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    return run(scenario, tracer), tracer.freeze()


# -- the sweep front-end -------------------------------------------------------


def run_scenario_spec(
    spec: FleetRegionScenario, tracer: Tracer | None = None
) -> ScenarioResult:
    """Run one fleet scenario to completion (or horizon) and reduce it.

    The reduction rides the simulator's flat summary path
    (:meth:`~repro.fleet.simulator.FleetSimulator.run_summary`): no
    :class:`~repro.fleet.report.FleetReport` envelope is ever
    materialized — only the eleven aggregate numbers, bit-identical to
    the report-mediated reduction, cross back.
    """
    start = time.perf_counter()
    simulator = spec.build(tracer=tracer)
    if simulator is None:
        return ScenarioResult.blank(
            spec.name,
            spec.cell,
            spec.trace_seed,
            wall_s=time.perf_counter() - start,
        )
    fired_before = simulator.clock.fired
    summary = simulator.run_summary(
        horizon_s=spec.horizon_s, max_events=MAX_EVENTS_PER_SCENARIO
    )
    events = simulator.clock.fired - fired_before
    return ScenarioResult(
        name=spec.name,
        cell=spec.cell,
        trace_seed=spec.trace_seed,
        events_fired=events,
        wall_s=time.perf_counter() - start,
        **summary,
    )


def run_scenario_spec_traced(
    spec: FleetRegionScenario,
) -> tuple[ScenarioResult, Trace]:
    """:func:`run_scenario_spec` with a fresh per-cell tracer."""
    return _traced(run_scenario_spec, spec)


class SweepRunner:
    """Fans a :class:`ScenarioGrid` across a persistent worker pool.

    A cell's result returns through :func:`fan_out` like any other
    item's and lands at its grid index; the journal appends exactly the
    values each finished chunk carried, so process count and chunk size
    are provably invisible in the artifact.
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        jobs: int | None = 1,
        chunk_cells: int | None = None,
        policy: PoolPolicy | None = None,
        quarantine: bool = True,
    ) -> None:
        """*jobs*: worker processes; 1 runs inline, ``None`` uses the
        machine's CPU count.  *chunk_cells*: cells shipped per pool
        task; ``None`` auto-tunes from grid size and *jobs*.  *policy*
        tunes the self-healing pool (retries, backoff, chunk timeout);
        *quarantine* False restores the legacy fail-fast contract where
        any cell failure aborts the sweep."""
        self.grid = grid
        self.jobs = _resolve_jobs(jobs)
        if chunk_cells is not None and chunk_cells < 1:
            raise ConfigError("chunk_cells must be at least one cell")
        self.chunk_cells = chunk_cells
        self.policy = policy if policy is not None else PoolPolicy()
        self.quarantine = quarantine

    def run(
        self,
        grid_name: str = "sweep",
        progress: ProgressFn | None = None,
        journal_path: str | pathlib.Path | None = None,
        resume: bool = False,
        trace: bool = False,
    ) -> SweepReport | tuple[SweepReport, Trace]:
        """Execute every scenario; returns the aggregated report.

        With *journal_path* every completed cell is durably appended to
        a run journal, batched per worker chunk (one serialize + fsync
        covers the whole chunk), so a killed sweep loses at most its
        in-flight chunks — those cells simply recompute, byte-identical,
        on resume.  With *resume* the
        journal is validated against this grid first and its cells are
        restored instead of recomputed — the resumed report is
        byte-identical (modulo wall clock) to an uninterrupted run,
        quarantined cells included: a restored record keeps its status
        whatever this runner's ``quarantine`` flag says.
        On ``KeyboardInterrupt`` the journal is already durable: the
        interrupt propagates after the pool shuts down, and the caller
        can offer ``--resume``.

        With *trace* every cell runs under its own tracer and the
        return value is ``(report, merged trace)`` — one process per
        cell, in canonical (name-sorted) order regardless of fan-out
        width or chunking.  Traced runs are fail-fast whatever
        ``quarantine`` says and take no journal: a quarantined or
        restored cell would hole the merged trace, and trace captures
        are debugging runs where failing loudly is the point.
        """
        if resume and journal_path is None:
            raise ConfigError("resume=True needs the journal_path to resume from")
        if trace and journal_path is not None:
            raise ConfigError(
                "a traced sweep takes no journal: cells restored from one "
                "would be missing from the merged trace"
            )
        start = time.perf_counter()
        grid = self.grid
        journal: RunJournal | None = None
        restored: dict[int, ScenarioResult] = {}
        if journal_path is not None:
            if resume:
                journal, restored = RunJournal.resume_or_create(
                    journal_path, grid, grid_name
                )
            else:
                journal = RunJournal.create(journal_path, grid, grid_name)
        # A resumed sweep runs only the cells its journal is missing:
        # position p of the fan-out is grid cell remaining[p].
        remaining = [i for i in range(len(grid)) if i not in restored]

        def run_cell(index: int) -> ScenarioResult | tuple[ScenarioResult, Trace]:
            spec = grid.scenario_at(index)
            if trace:
                return run_scenario_spec_traced(spec)
            return run_scenario_spec(spec)

        def journal_cells(first: int, last: int, values: list) -> None:
            # One append per finished chunk, of the results it carried.
            journal.append_results(
                (journal.identities[index][1], result)
                for index, result in zip(remaining[first:last], values)
            )

        def quarantine_cell(position: int, detail: str) -> ScenarioResult:
            index = remaining[position]
            spec = grid.scenario_at(index)
            failed = ScenarioResult.blank(
                spec.name,
                spec.cell,
                spec.trace_seed,
                status="quarantined",
                error=detail,
            )
            if journal is not None:
                journal.append_results([(journal.identities[index][1], failed)])
            return failed

        def cell_progress(done: int, _total: int) -> None:
            progress(len(restored) + done, len(grid))

        stats = PoolStats()
        try:
            outcomes = fan_out(
                remaining,
                run_cell,
                self.jobs,
                progress=None if progress is None else cell_progress,
                chunk_size=self.chunk_cells,
                policy=self.policy,
                on_item_failed=(
                    quarantine_cell if self.quarantine and not trace else None
                ),
                stats=stats,
                on_chunk=None if journal is None else journal_cells,
            )
        finally:
            if journal is not None:
                journal.close()
        results = [restored.get(index) for index in range(len(grid))]
        for index, outcome in zip(remaining, outcomes):
            results[index] = outcome[0] if trace else outcome
        report = SweepReport(
            results=results,
            grid_name=grid_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
            extras=_incident_extras(stats),
        )
        if trace:
            return report, merge_traces(cell_trace for _, cell_trace in outcomes)
        return report


def _incident_extras(stats: PoolStats) -> dict:
    """Report extras for a run: the pool's incident counters, if any."""
    return {"fault_tolerance": stats.as_dict()} if stats.any() else {}


# -- the general front-end -----------------------------------------------------


@dataclass
class ExperimentEntry:
    """One scenario's outcome inside an experiment batch."""

    name: str
    scenario_kind: str
    wall_s: float
    report: ReportBase
    status: str = "ok"  # "ok" | "quarantined"


def run_experiment(
    scenario: Scenario, tracer: Tracer | None = None
) -> ExperimentEntry:
    """Run one scenario of any kind; module top-level for pickling."""
    start = time.perf_counter()
    report = scenario.run(tracer)
    return ExperimentEntry(
        name=scenario.name,
        scenario_kind=scenario.kind,
        wall_s=time.perf_counter() - start,
        report=report,
    )


def run_experiment_traced(
    scenario: Scenario,
) -> tuple[ExperimentEntry, Trace]:
    """:func:`run_experiment` with a fresh per-scenario tracer."""
    return _traced(run_experiment, scenario)


@dataclass
class ExperimentReport(BatchReport):
    """A batch of heterogeneous scenario runs under one envelope.

    Unlike a sweep (hundreds of cells, reduced in-worker), an
    experiment batch keeps each scenario's *full* report — the JSON
    artifact nests the child envelopes, so one file revives every
    report with its own kind intact.
    """

    report_kind = "experiments"
    rows_attr = rows_key = "entries"

    entries: list[ExperimentEntry]
    experiment_name: str = "experiment"
    total_wall_s: float = 0.0
    jobs: int = 1
    extras: dict = field(default_factory=dict)

    def entry(self, name: str) -> ExperimentEntry:
        """Look one scenario's entry up by name."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise ConfigError(f"no experiment entry named {name!r}")

    def payload(self) -> dict:
        return record_row(
            self,
            entries=lambda entries: [
                record_row(entry, report=ReportBase.envelope) for entry in entries
            ],
            total_wall_s=lambda wall_s: round(wall_s, 3),
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentReport":
        # Only the entries are required, and an entry's status is optional
        # so pre-quarantine artifacts still revive.
        return record_from_row(
            cls,
            payload,
            "experiment report",
            optional=True,
            entries=lambda rows: [
                record_from_row(
                    ExperimentEntry,
                    row,
                    "experiment entry",
                    optional=True,
                    report=ReportBase.from_envelope,
                )
                for row in rows
            ],
        )

    def metrics(self) -> dict[str, float]:
        flat = {
            "experiments.scenarios": float(len(self.entries)),
            "experiments.total_wall_s": self.total_wall_s,
            "experiments.quarantined": float(len(self.quarantined)),
        }
        kinds: dict[str, int] = {}
        for entry in self.entries:
            kinds[entry.scenario_kind] = kinds.get(entry.scenario_kind, 0) + 1
        for kind, count in sorted(kinds.items()):
            flat[f"experiments.scenarios.{kind}"] = float(count)
        return flat

    def render(self) -> str:
        """Per-scenario table: kind, wall time, headline metrics."""
        from ..analysis.report import render_table

        rows = []
        for entry in self.entries:
            child = entry.report.metrics()
            headline = ", ".join(
                f"{key.split('.', 1)[1]}={value:g}"
                for key, value in list(child.items())[:3]
            )
            rows.append(
                [
                    entry.name,
                    entry.scenario_kind,
                    f"{entry.wall_s:.2f}",
                    headline or "-",
                ]
            )
        table = render_table(
            ["scenario", "kind", "wall_s", "headline metrics"],
            rows,
            title=f"Experiment batch: {self.experiment_name}",
        )
        summary = f"scenarios: {len(self.entries)}"
        if self.total_wall_s > 0:
            summary += (
                f"; wall time {self.total_wall_s:.1f} s with "
                f"{self.jobs} process(es)"
            )
        return table + "\n" + summary


class ExperimentRunner:
    """Fans any mix of scenario kinds across processes.

    The generalization of :class:`SweepRunner`: same pool policy, same
    determinism contract (scenarios carry their own seeds; entries sort
    canonically), but heterogeneous scenarios in, full per-scenario
    reports out.
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        jobs: int | None = 1,
        policy: PoolPolicy | None = None,
        quarantine: bool = False,
    ) -> None:
        """*quarantine* True keeps the batch alive past a poison
        scenario: it lands as a quarantined entry wrapping a
        :class:`~repro.experiments.report.FailureReport` instead of
        aborting the run.  Off by default — small heterogeneous batches
        are usually interactive, where failing loudly is the point."""
        if not scenarios:
            raise ConfigError("an experiment needs at least one scenario")
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            raise ConfigError("scenario names must be unique within a batch")
        self.scenarios = list(scenarios)
        self.jobs = _resolve_jobs(jobs)
        self.policy = policy if policy is not None else PoolPolicy()
        self.quarantine = quarantine

    def _quarantined_entry(self, index: int, detail: str) -> ExperimentEntry:
        scenario = self.scenarios[index]
        return ExperimentEntry(
            name=scenario.name,
            scenario_kind=scenario.kind,
            wall_s=0.0,  # a crash's elapsed time is not reproducible
            report=FailureReport(scenario=scenario.name, error=detail),
            status="quarantined",
        )

    def run(
        self,
        experiment_name: str = "experiment",
        progress: ProgressFn | None = None,
        trace: bool = False,
    ) -> ExperimentReport | tuple[ExperimentReport, Trace]:
        """Execute every scenario; returns the batched report.

        With *trace* every scenario runs under its own tracer and the
        return value is ``(report, merged trace)`` — one process per
        scenario (names are unique within a batch, so the merge cannot
        collide).  Traced runs are fail-fast whatever ``quarantine``
        says: a quarantined scenario would hole the merged trace.
        """
        start = time.perf_counter()
        stats = PoolStats()
        outcomes = fan_out(
            self.scenarios,
            run_experiment_traced if trace else run_experiment,
            self.jobs,
            progress,
            policy=self.policy,
            on_item_failed=(
                self._quarantined_entry
                if self.quarantine and not trace
                else None
            ),
            stats=stats,
        )
        report = ExperimentReport(
            entries=[entry for entry, _ in outcomes] if trace else outcomes,
            experiment_name=experiment_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
            extras=_incident_extras(stats),
        )
        if trace:
            return report, merge_traces(cell_trace for _, cell_trace in outcomes)
        return report
