"""The experiment executor: the sweep is the one batch.

:func:`fan_out` is the engine — "apply a function to every item,
inline or across the persistent pool (:mod:`repro.experiments.pool`),
and report completed index ranges" —
and the only place that chooses between the two.  :class:`SweepRunner`
is its front-end for a fleet grid: a cell runs
``grid.scenario_at(index)`` and returns its flat
:class:`~repro.experiments.report.ScenarioResult`, which the parent
slots into the :class:`~repro.experiments.report.SweepReport` at its
grid index.  It also speaks the run-journal protocol
(:mod:`repro.experiments.journal`): pass ``journal_path`` and every
completed chunk of cells is durably logged, pass ``resume=True`` and a
killed sweep picks up where it stopped — with a final report
byte-identical (modulo wall clock) to a run that was never
interrupted.  A single scenario of any kind needs no runner:
``scenario.run(tracer)`` is its one entry.

Tracing is an argument, not a second entry point: ``run(trace=True)``
returns ``(report, merged trace)``.

The runner relies on the scenario contract: every scenario seeds itself
and reports sort canonically before aggregation — process scheduling
can never leak into the artifact.  It is also why nothing retries: a
cell that raised would raise again, so it runs once under its own
``try``/``except`` (inline, or inside its worker) and, unless the
runner is fail-fast, becomes its quarantine record.  A worker that dies
ends the run; the journal is the one recovery path, and a sweep resumed
from it computes only the cells it is missing.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Callable, Sequence

from ..common.errors import ConfigError
from ..telemetry.tracer import Trace, Tracer, merge_traces
from .grid import ScenarioGrid
from .journal import RunJournal
from .pool import auto_chunk_size, fork_available, run_chunked
from .report import ScenarioResult, SweepReport
from .scenarios import FleetRegionScenario, MAX_EVENTS_PER_SCENARIO

#: ``progress(done, total)`` — called after each completed item.
ProgressFn = Callable[[int, int], None]


def fan_out(
    items: Sequence,
    fn: Callable,
    jobs: int,
    progress: ProgressFn | None = None,
    chunk_size: int | None = None,
    on_item_failed: Callable[[int, str], object] | None = None,
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

    Both arms run each item through one body: with *on_item_failed*,
    an item whose *fn* raises becomes ``on_item_failed(index,
    "{type}: {exc}")`` — computed where the item ran, inside its worker
    when pooled — and the batch goes on; without it the original
    exception re-raises (the fail-fast contract).  A pooled worker that
    dies ends the batch with an error naming its chunk
    (:func:`~repro.experiments.pool.run_chunked`).

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
    once, a quarantined one included.
    """
    if jobs < 1:
        raise ConfigError("fan_out needs at least one worker process")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError("chunk size must be at least one item")
    n_items = len(items)
    if n_items == 0:
        return []
    size = chunk_size if chunk_size is not None else auto_chunk_size(n_items, jobs)

    def run_item(index: int):
        try:
            return fn(items[index])
        except Exception as exc:
            if on_item_failed is None:
                raise
            return on_item_failed(index, f"{type(exc).__name__}: {exc}")

    if jobs == 1 or n_items == 1 or not fork_available():
        results: list = []
        reported = 0  # every finished index below this has been reported

        def report(stop: int) -> None:
            nonlocal reported
            if on_chunk is not None and stop > reported:
                on_chunk(reported, stop, results[reported:stop])
            reported = stop

        try:
            for index in range(n_items):
                results.append(run_item(index))
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
            chunk.append(run_item(index))
            if cell_done is not None:
                cell_done()
        return chunk

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
        on_chunk=chunk_done,
    )
    return results


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
    """:func:`run_scenario_spec` under a tracer built *here*.

    Tracers never cross a process boundary: each cell builds its own in
    the executing process and freezes it into a picklable
    :class:`~repro.telemetry.tracer.Trace` for the trip back.
    """
    tracer = Tracer(scenario=spec.name, seed=spec.seed)
    return run_scenario_spec(spec, tracer), tracer.freeze()


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
        quarantine: bool = True,
    ) -> None:
        """*jobs*: worker processes; 1 runs inline, ``None`` uses the
        machine's CPU count.  *chunk_cells*: cells shipped per pool
        task; ``None`` auto-tunes from grid size and *jobs*.
        *quarantine* False is the fail-fast contract: a cell that raises
        aborts the sweep with its own exception."""
        self.grid = grid
        self.jobs = (os.cpu_count() or 1) if jobs is None else jobs
        if self.jobs < 1:
            raise ConfigError("a runner needs at least one worker process")
        if chunk_cells is not None and chunk_cells < 1:
            raise ConfigError("chunk_cells must be at least one cell")
        self.chunk_cells = chunk_cells
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

        With *journal_path* every completed cell — a quarantined one
        included — is durably appended to a run journal, batched per
        worker chunk (one serialize + fsync covers the whole chunk), so
        a killed sweep, or one whose worker died, loses at most its
        in-flight chunks — those cells simply recompute,
        byte-identical, on resume.  With *resume* the
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
            spec = grid.scenario_at(remaining[position])
            return ScenarioResult.blank(
                spec.name,
                spec.cell,
                spec.trace_seed,
                status="quarantined",
                error=detail,
            )

        def cell_progress(done: int, _total: int) -> None:
            progress(len(restored) + done, len(grid))

        try:
            outcomes = fan_out(
                remaining,
                run_cell,
                self.jobs,
                progress=None if progress is None else cell_progress,
                chunk_size=self.chunk_cells,
                on_item_failed=(
                    quarantine_cell if self.quarantine and not trace else None
                ),
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
        )
        if trace:
            return report, merge_traces(cell_trace for _, cell_trace in outcomes)
        return report
