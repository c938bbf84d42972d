"""The experiment executors: scenarios across cores, results reduced.

Two runners share one persistent-pool fan-out engine
(:mod:`repro.experiments.pool`):

* :class:`SweepRunner` — the fleet-grid specialization: the grid
  expands into a shared-memory :class:`~repro.experiments.pool.SweepArena`
  (parameter rows written once, workers rebuild scenarios zero-copy
  and fold flat metrics into the columnar results table in place), and
  the parent materializes the
  :class:`~repro.experiments.report.SweepReport` in a single merge
  (deterministic per-scenario seeding, results independent of process
  count, chunk size, and scheduling).
* :class:`ExperimentRunner` — the general plane: fans *any* mix of
  registered scenario kinds (fleet regions, chaos sessions, timed DPP
  simulations) across the same persistent pool via :func:`fan_out` and
  collects each scenario's full report into an
  :class:`ExperimentReport`, itself a
  :class:`~repro.common.serialization.ReportBase` whose JSON embeds
  every child report envelope.

Both rely on the scenario contract: every scenario seeds itself and
reports sort canonically before aggregation — process scheduling can
never leak into the artifact.  Where the ``fork`` start method is
unavailable both runners execute inline, as ``jobs=1`` does (same
bytes, one core).

Both runners also inherit the pool's fault tolerance (see
:mod:`repro.experiments.pool`): dead workers respawn, their chunks
retry, and isolated poison cells quarantine as failed results instead
of aborting the campaign.  :class:`SweepRunner` additionally speaks
the run-journal protocol (:mod:`repro.experiments.journal`): pass
``journal_path`` and every completed cell is durably logged, pass
``resume=True`` and a killed sweep picks up where it stopped — with a
final report byte-identical (modulo wall clock) to a run that was
never interrupted.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..common.errors import ConfigError
from ..common.serialization import ReportBase, require_keys, revive_float
from ..telemetry.tracer import Trace, Tracer, merge_traces
from .base import Scenario
from .grid import ScenarioGrid
from .journal import RunJournal
from .pool import (
    PoolPolicy,
    PoolStats,
    SweepArena,
    auto_chunk_size,
    fork_available,
    run_chunked,
)
from .report import FailureReport, ScenarioResult, SweepReport, merge_extras
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
) -> list:
    """Apply *fn* over *items*, inline or across persistent workers.

    ``jobs=1`` (or a single item, or a platform without the ``fork``
    start method) runs inline — no pool overhead, easiest to debug,
    what CI determinism tests use.  Otherwise items ship to long-lived
    forked workers in index chunks (*chunk_size* cells per task,
    auto-tuned from the batch size and *jobs* when None); *items* and
    *fn* are inherited by the fork, never pickled.
    Results come back in input order regardless of engine, jobs, or
    chunk size, so fan-out width cannot reorder them.

    *progress* is called after each item finishes — in completion
    order, which process scheduling may permute; only the counts are
    meaningful, never an item identity.

    Fault tolerance (see :func:`~repro.experiments.pool.run_chunked`):
    with *on_item_failed* a poison item — one that keeps raising or
    killing its worker past *policy*'s retry budget — is quarantined:
    ``on_item_failed(index, detail)`` supplies the replacement value
    for its result slot and the batch completes.  Without it failures
    re-raise (the legacy fail-fast contract).  The inline path honors
    the same hook for in-process exceptions, so ``jobs=1`` and
    ``jobs=N`` quarantine identically.  *stats*, when provided,
    accumulates the pool's incident counters.
    """
    n_items = len(items)
    if jobs == 1 or n_items <= 1 or not fork_available():
        results = []
        for index, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:
                if on_item_failed is None:
                    raise
                if stats is not None:
                    stats.quarantined_cells += 1
                results.append(
                    on_item_failed(index, f"{type(exc).__name__}: {exc}")
                )
            if progress is not None:
                progress(len(results), n_items)
        return results
    results = [None] * n_items
    failed: dict[int, str] = {}

    def work(start: int, stop: int, cell_done) -> list:
        chunk = []
        for index in range(start, stop):
            chunk.append(fn(items[index]))
            if cell_done is not None:
                cell_done(index)
        return chunk

    for start, stop, payload in run_chunked(
        work,
        n_items,
        jobs=jobs,
        chunk_size=chunk_size,
        progress=progress,
        policy=policy,
        stats=stats,
        on_cell_failed=(
            None
            if on_item_failed is None
            else lambda index, detail: failed.setdefault(index, detail)
        ),
    ):
        results[start:stop] = payload
    for index, detail in failed.items():
        results[index] = on_item_failed(index, detail)
    return results


def _resolve_jobs(jobs: int | None) -> int:
    """Worker process count; ``None`` means one per CPU core."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError("a runner needs at least one worker process")
    return jobs


# -- the sweep specialization --------------------------------------------------


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
        return ScenarioResult.empty(
            name=spec.name,
            cell=spec.cell,
            trace_seed=spec.trace_seed,
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
    """Traced counterpart of :func:`run_scenario_spec`.

    Each invocation builds its *own* tracer — tracers never cross a
    process boundary; only the frozen (picklable) trace ships back.
    """
    tracer = Tracer(scenario=spec.name, seed=spec.trace_seed)
    result = run_scenario_spec(spec, tracer)
    return result, tracer.freeze()


def _sweep_chunk_work(arena: SweepArena, traced: bool, indices: Sequence[int]):
    """The in-worker chunk body: run cells, fold metrics into the arena.

    Numeric results land directly in the shared columnar table — the
    chunk's queue envelope is empty (untraced) or just the frozen
    per-cell traces (traced).  The closure and the arena it captures
    cross into workers via fork, never pickle.

    *indices* maps pool positions to arena indices: a resumed sweep
    pools only over the cells its journal is missing, so position ``p``
    computes arena cell ``indices[p]``.  ``cell_done`` reports the pool
    position (the pool's dedup key); the arena store happens *before*
    the completion message, so the parent's journal observer always
    sees the finished row in the shared map.
    """

    def work(start: int, stop: int, cell_done) -> list[Trace] | None:
        traces: list[Trace] | None = [] if traced else None
        for position in range(start, stop):
            index = indices[position]
            spec = arena.scenario_for(index)
            if traced:
                result, trace = run_scenario_spec_traced(spec)
                traces.append(trace)
            else:
                result = run_scenario_spec(spec)
            arena.store(index, result)
            if cell_done is not None:
                cell_done(position)
        return traces

    return work


class SweepRunner:
    """Fans a :class:`ScenarioGrid` across a persistent worker pool.

    The grid expands into a shared-memory :class:`SweepArena`; both the
    serial and pooled paths run every scenario through the same arena
    store/materialize cycle, so process count and chunk size are
    provably invisible in the artifact.
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

    def _execute(
        self,
        arena: SweepArena,
        traced: bool,
        progress: ProgressFn | None,
        restored: dict[int, ScenarioResult] | None = None,
        on_cell: Callable[[int], None] | None = None,
        on_chunk: Callable[[list[int]], None] | None = None,
        statuses: dict[int, tuple[str, str]] | None = None,
        stats: PoolStats | None = None,
    ) -> list[Trace]:
        """Run the grid through *arena*; returns any traces in
        grid-index order.

        *restored* maps arena indices to journaled results: those cells
        are stored, not recomputed.  *on_chunk*, when given, observes
        freshly computed arena indices in completed batches — one call
        per pool chunk (the rows are already in the arena), which is
        the once-per-chunk journal append point.  *on_cell* observes
        single cells: ``on_cell(index)`` for computed cells when no
        *on_chunk* is wired (legacy per-cell journaling) and
        ``on_cell(index, failed_result)`` for quarantined ones (the
        arena row carries only numbers; the status must ride the
        callback).  With *statuses* (quarantine enabled) poison cells
        store a failed result and record ``(status, error)`` there
        instead of aborting; *stats* accumulates the pool's incident
        counters.
        """
        n_cells = len(arena)
        restored = restored if restored is not None else {}
        for index, result in restored.items():
            arena.store(index, result)
            if statuses is not None and result.status != "ok":
                statuses[index] = (result.status, result.error)
        remaining = [i for i in range(n_cells) if i not in restored]
        offset = n_cells - len(remaining)
        traces: list[Trace] = []

        def cell_progress(done: int, _total: int) -> None:
            progress(offset + done, n_cells)

        def quarantine_cell(index: int, detail: str) -> None:
            spec = arena.scenario_for(index)
            failed = ScenarioResult.failed(
                name=spec.name,
                cell=spec.cell,
                trace_seed=spec.trace_seed,
                error=detail,
            )
            arena.store(index, failed)
            statuses[index] = ("quarantined", detail)
            if on_cell is not None:
                on_cell(index, failed)

        wrapped_progress = cell_progress if progress is not None else None
        if self.jobs == 1 or len(remaining) <= 1 or not fork_available():
            # Inline execution batches journal appends at the same
            # granularity the pool would have chunked at, so serial and
            # pooled runs pay comparable (amortised) fsync costs.
            batch: list[int] = []
            batch_cells = (
                auto_chunk_size(len(remaining), 1) if remaining else 1
            )
            try:
                for done, index in enumerate(remaining, start=1):
                    spec = arena.scenario_for(index)
                    try:
                        if traced:
                            result, trace = run_scenario_spec_traced(spec)
                            traces.append(trace)
                        else:
                            result = run_scenario_spec(spec)
                    except Exception as exc:
                        if statuses is None:
                            raise
                        if stats is not None:
                            stats.quarantined_cells += 1
                        quarantine_cell(index, f"{type(exc).__name__}: {exc}")
                    else:
                        arena.store(index, result)
                        if on_chunk is not None:
                            batch.append(index)
                            if len(batch) >= batch_cells:
                                on_chunk(batch)
                                batch = []
                        elif on_cell is not None:
                            on_cell(index)
                    if wrapped_progress is not None:
                        wrapped_progress(done, len(remaining))
            finally:
                # Completed-but-unjournaled cells become durable even
                # when an exception or interrupt cuts the loop short.
                if on_chunk is not None and batch:
                    on_chunk(batch)
        else:
            for _start, _stop, payload in run_chunked(
                _sweep_chunk_work(arena, traced, remaining),
                len(remaining),
                jobs=self.jobs,
                chunk_size=self.chunk_cells,
                progress=wrapped_progress,
                policy=self.policy,
                stats=stats,
                on_cell=(
                    None
                    if on_cell is None or on_chunk is not None
                    else lambda position, _payload: on_cell(
                        remaining[position]
                    )
                ),
                on_cell_failed=(
                    None
                    if statuses is None
                    else lambda position, detail: quarantine_cell(
                        remaining[position], detail
                    )
                ),
                on_chunk=(
                    None
                    if on_chunk is None
                    else lambda start, stop: on_chunk(
                        [remaining[p] for p in range(start, stop)]
                    )
                ),
            ):
                if traced:
                    traces.extend(payload)
        return traces

    def run(
        self,
        grid_name: str = "sweep",
        progress: ProgressFn | None = None,
        journal_path: str | pathlib.Path | None = None,
        resume: bool = False,
    ) -> SweepReport:
        """Execute every scenario; returns the aggregated report.

        With *journal_path* every completed cell is durably appended to
        a run journal, batched per worker chunk (one serialize + fsync
        covers the whole chunk), so a killed sweep loses at most its
        in-flight chunks — those cells simply recompute, byte-identical,
        on resume.  With *resume* the
        journal is validated against this grid first and its cells are
        restored instead of recomputed — the resumed report is
        byte-identical (modulo wall clock) to an uninterrupted run.
        On ``KeyboardInterrupt`` the journal is already durable: the
        interrupt propagates after the pool shuts down, and the caller
        can offer ``--resume``.
        """
        start = time.perf_counter()
        journal: RunJournal | None = None
        restored: dict[int, ScenarioResult] = {}
        if journal_path is not None:
            if resume:
                journal, restored = RunJournal.resume_or_create(
                    journal_path, self.grid, grid_name
                )
            else:
                journal = RunJournal.create(journal_path, self.grid, grid_name)
        stats = PoolStats()
        statuses: dict[int, tuple[str, str]] = {}
        arena = SweepArena(self.grid)

        journaled: set[int] = set()

        def journal_cell(index: int, result: ScenarioResult | None = None) -> None:
            if index in journaled:
                return
            journaled.add(index)
            if result is None:  # computed cell: the row is in the arena
                result = arena.result_for(index)
            journal.append_result(journal.identities[index][1], result)

        def journal_chunk(indices: list[int]) -> None:
            # One batch append per completed chunk: the parent rebuilds
            # each cell's journal envelope from the arena columns, so
            # the worker never serialized anything per cell.
            pairs = []
            for index in indices:
                if index in journaled:
                    continue
                journaled.add(index)
                pairs.append(
                    (journal.identities[index][1], arena.result_for(index))
                )
            if pairs:
                journal.append_results(pairs)

        try:
            self._execute(
                arena,
                traced=False,
                progress=progress,
                restored=restored,
                on_cell=journal_cell if journal is not None else None,
                on_chunk=journal_chunk if journal is not None else None,
                statuses=statuses if self.quarantine else None,
                stats=stats,
            )
        finally:
            if journal is not None:
                journal.close()
        results = arena.materialize()
        for index, (status, error) in statuses.items():
            results[index] = replace(results[index], status=status, error=error)
        extras: dict = {}
        if stats.any():
            extras["fault_tolerance"] = stats.as_dict()
        return SweepReport(
            results=results,
            grid_name=grid_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
            extras=extras,
        )

    def run_traced(
        self, grid_name: str = "sweep", progress: ProgressFn | None = None
    ) -> tuple[SweepReport, Trace]:
        """Execute with per-cell tracing; the merged trace holds one
        process per cell, in canonical (name-sorted) order regardless
        of fan-out width or chunking.

        Traced runs keep the legacy fail-fast contract (no quarantine,
        no journal): a quarantined cell would hole the merged trace,
        and trace captures are debugging runs where failing loudly is
        the point.
        """
        start = time.perf_counter()
        arena = SweepArena(self.grid)
        traces = self._execute(arena, traced=True, progress=progress)
        report = SweepReport(
            results=arena.materialize(),
            grid_name=grid_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
        )
        return report, merge_traces(traces)


# -- the general plane ---------------------------------------------------------


@dataclass
class ExperimentEntry:
    """One scenario's outcome inside an experiment batch."""

    name: str
    scenario_kind: str
    wall_s: float
    report: ReportBase
    status: str = "ok"  # "ok" | "quarantined"

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "scenario_kind": self.scenario_kind,
            "wall_s": self.wall_s,
            "report": self.report.envelope(),
            "status": self.status,
        }

    @classmethod
    def from_row(cls, row: dict) -> "ExperimentEntry":
        # status is optional so pre-quarantine artifacts still revive.
        require_keys(
            row,
            required=("name", "scenario_kind", "wall_s", "report"),
            optional=("status",),
            context="experiment entry",
        )
        return cls(
            name=row["name"],
            scenario_kind=row["scenario_kind"],
            wall_s=revive_float(row["wall_s"]),
            report=ReportBase.from_envelope(row["report"]),
            status=row.get("status", "ok"),
        )


def run_experiment(scenario: Scenario) -> ExperimentEntry:
    """Run one scenario of any kind; module top-level for pickling."""
    start = time.perf_counter()
    report = scenario.run()
    return ExperimentEntry(
        name=scenario.name,
        scenario_kind=scenario.kind,
        wall_s=time.perf_counter() - start,
        report=report,
    )


def run_experiment_traced(
    scenario: Scenario,
) -> tuple[ExperimentEntry, Trace]:
    """Run one scenario of any kind with a fresh per-scenario tracer.

    The tracer is built in the executing process (tracers never cross
    a process boundary) and frozen into a picklable
    :class:`~repro.telemetry.tracer.Trace` for the return trip.
    """
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    start = time.perf_counter()
    report = scenario.run_traced(tracer)
    entry = ExperimentEntry(
        name=scenario.name,
        scenario_kind=scenario.kind,
        wall_s=time.perf_counter() - start,
        report=report,
    )
    return entry, tracer.freeze()


@dataclass
class ExperimentReport(ReportBase):
    """A batch of heterogeneous scenario runs under one envelope.

    Unlike a sweep (hundreds of cells, reduced in-worker), an
    experiment batch keeps each scenario's *full* report — the JSON
    artifact nests the child envelopes, so one file revives every
    report with its own kind intact.
    """

    report_kind = "experiments"

    entries: list[ExperimentEntry]
    experiment_name: str = "experiment"
    total_wall_s: float = 0.0
    jobs: int = 1
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonical order, same contract as SweepReport.
        self.entries = sorted(self.entries, key=lambda e: e.name)

    def entry(self, name: str) -> ExperimentEntry:
        """Look one scenario's entry up by name."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise ConfigError(f"no experiment entry named {name!r}")

    @property
    def quarantined(self) -> list[ExperimentEntry]:
        """Scenarios the self-healing pool isolated, in name order."""
        return [e for e in self.entries if e.status == "quarantined"]

    def payload(self) -> dict:
        return {
            "experiment_name": self.experiment_name,
            "jobs": self.jobs,
            "total_wall_s": round(self.total_wall_s, 3),
            "entries": [entry.to_row() for entry in self.entries],
            "extras": self.extras,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentReport":
        require_keys(
            payload,
            required=("entries",),
            optional=("experiment_name", "jobs", "total_wall_s", "extras"),
            context="experiment report",
        )
        return cls(
            entries=[
                ExperimentEntry.from_row(row) for row in payload["entries"]
            ],
            experiment_name=payload.get("experiment_name", "experiment"),
            jobs=payload.get("jobs", 1),
            total_wall_s=payload.get("total_wall_s", 0.0),
            extras=payload.get("extras", {}),
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

    def deterministic_payload(self) -> dict:
        """The payload with wall clocks and incident counters
        neutralized — the bytes the determinism contract covers (same
        convention as :meth:`SweepReport.deterministic_payload`)."""
        payload = self.payload()
        payload["total_wall_s"] = 0.0
        payload["jobs"] = 0
        payload["extras"] = {
            key: value
            for key, value in payload["extras"].items()
            if key != "fault_tolerance"
        }
        for row in payload["entries"]:
            row["wall_s"] = 0.0
        return payload

    def deterministic_json(self) -> str:
        """Canonical JSON of :meth:`deterministic_payload`."""
        from ..common.serialization import dump_json, null_specials

        return dump_json(
            null_specials(
                {
                    "report": self.report_kind,
                    "payload": self.deterministic_payload(),
                }
            )
        )

    def merge(self, other: "ReportBase") -> "ExperimentReport":
        """Fold another batch in (disjoint scenario names required)."""
        if not isinstance(other, ExperimentReport):
            raise ConfigError(
                "can only merge ExperimentReport into ExperimentReport"
            )
        collisions = {e.name for e in self.entries} & {
            e.name for e in other.entries
        }
        if collisions:
            raise ConfigError(
                f"cannot merge batches re-running scenarios: "
                f"{sorted(collisions)[:5]}"
            )
        self.entries = sorted(
            self.entries + other.entries, key=lambda e: e.name
        )
        self.total_wall_s += other.total_wall_s
        self.jobs = max(self.jobs, other.jobs)
        merge_extras(self.extras, other.extras)
        return self

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
    ) -> ExperimentReport:
        """Execute every scenario; returns the batched report."""
        start = time.perf_counter()
        stats = PoolStats()
        entries = fan_out(
            self.scenarios,
            run_experiment,
            self.jobs,
            progress,
            policy=self.policy,
            on_item_failed=self._quarantined_entry if self.quarantine else None,
            stats=stats,
        )
        extras: dict = {}
        if stats.any():
            extras["fault_tolerance"] = stats.as_dict()
        return ExperimentReport(
            entries=entries,
            experiment_name=experiment_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
            extras=extras,
        )

    def run_traced(
        self,
        experiment_name: str = "experiment",
        progress: ProgressFn | None = None,
    ) -> tuple[ExperimentReport, Trace]:
        """Execute with per-scenario tracing; the merged trace holds
        one process per scenario (names are unique within a batch, so
        the merge cannot collide)."""
        start = time.perf_counter()
        pairs = fan_out(
            self.scenarios, run_experiment_traced, self.jobs, progress
        )
        report = ExperimentReport(
            entries=[entry for entry, _ in pairs],
            experiment_name=experiment_name,
            total_wall_s=time.perf_counter() - start,
            jobs=self.jobs,
        )
        return report, merge_traces([trace for _, trace in pairs])
