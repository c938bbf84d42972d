"""``fleet_sweep``: a journaled two-process sweep over a fleet grid.

One unit is one what-if sweep as a user runs it: a :class:`ScenarioGrid`
of seeds × two mixes over one small region at the library's default
four-hour horizon, through ``SweepRunner(grid, jobs=2).run`` with the
crash-safe journal on, then ``report.write``.  Every unit sweeps the
same cells, so every report has the same deterministic bytes.

The traced run adds serial in-process probes — cell latency, simulator
and clock event rates, the telemetry tax — from which the pool's
parallel efficiency and per-cell overhead follow.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time

from repro.common.serialization import percentile
from repro.common.simclock import SimClock
from repro.experiments import (
    ScenarioGrid,
    SweepRunner,
    run_scenario_spec,
    run_scenario_spec_traced,
)
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

from .catalogue import SWEEP
from .harness import UnitOutcome, digest_of


def _row(result) -> str:
    """A cell's result with its wall clock zeroed, as comparable text."""
    return json.dumps(dataclasses.replace(result, wall_s=0.0).to_row(), sort_keys=True)


class FleetSweep:
    name = SWEEP

    def __init__(self, seed: int, scale: float, scratch) -> None:
        self.seed = seed
        self.scratch = scratch
        self.params = {
            "seeds": max(3, round(300 * scale)),
            "mixes": {"default": {}, "busy": {"exploratory_per_day": 96.0}},
            "hdd_nodes": 20,
            "ssd_cache_nodes": 2,
            "trainer_nodes": 16,
            "pool_workers": 500,
            "duration_s": 4.0 * 3600,
            "jobs": 2,
            "journal": True,
            "probe_cells": max(4, round(200 * scale)),
            "traced_probe_cells": max(2, round(32 * scale)),
            "simclock_chains": 64,
            "simclock_events": max(20_000, round(2_000_000 * scale)),
        }

    def setup(self) -> None:
        params = self.params
        self.grid = ScenarioGrid(
            seeds=tuple(range(self.seed, self.seed + params["seeds"])),
            mixes=tuple(
                (name, FleetMix(**overrides))
                for name, overrides in params["mixes"].items()
            ),
            configs=(
                (
                    "base",
                    FleetConfig(
                        fabric=StorageFabric(
                            n_hdd_nodes=params["hdd_nodes"],
                            n_ssd_cache_nodes=params["ssd_cache_nodes"],
                        ),
                        n_trainer_nodes=params["trainer_nodes"],
                        pool=PoolConfig(max_workers=params["pool_workers"]),
                    ),
                ),
            ),
            duration_s=params["duration_s"],
        )
        self.specs = self.grid.expand()

    def run_unit(self, index: int, rec, watch) -> UnitOutcome:
        job = f"sweep{index}"
        journal = self.scratch / f"{job}.journal.jsonl"
        artifact = self.scratch / f"{job}.report.json"
        with watch, rec.span("harness.gap", job):
            with rec.span("experiments.run", job):
                report = SweepRunner(self.grid, jobs=self.params["jobs"]).run(
                    journal_path=journal
                )
            with rec.span("experiments.report_write", job):
                report.write(artifact)

        self.report = report
        cells = len(self.specs)
        done = sum(1 for result in report.results if result.status == "ok")
        journal_bytes = journal.stat().st_size
        written = journal_bytes + artifact.stat().st_size
        journal.unlink()
        artifact.unlink()
        return UnitOutcome(
            items=done,
            attempted=cells,
            failed=cells - done,
            bytes_moved=written,
            digest=digest_of(report.deterministic_json().encode()),
            counts={"experiments.cells": cells},
            noisy_counts={
                "experiments.journal_bytes": journal_bytes,
                "experiments.pool_incidents": sum(
                    report.extras.get("fault_tolerance", {}).values()
                ),
            },
        )

    def probes(self, measured: dict) -> dict[str, float]:
        params = self.params
        specs = self.specs[: params["probe_cells"]]
        pooled = {result.name: _row(result) for result in self.report.results}
        cell_s = []
        events = 0
        for spec in specs:
            start = time.perf_counter()
            result = run_scenario_spec(spec)
            cell_s.append(time.perf_counter() - start)
            events += result.events_fired
            if _row(result) != pooled[spec.name]:
                raise AssertionError(f"pooled and serial results differ: {spec.name}")
        mean_cell_s = statistics.fmean(cell_s)
        per_cell_s = params["jobs"] * measured["experiments.run_s"] / len(self.specs)

        traced_specs = specs[: params["traced_probe_cells"]]
        start = time.perf_counter()
        for spec in traced_specs:
            run_scenario_spec_traced(spec)
        traced_s = time.perf_counter() - start
        return {
            "fleet.cell_ms_p50": 1e3 * statistics.median(cell_s),
            "fleet.cell_ms_p99": 1e3 * percentile(cell_s, 99.0),
            "fleet.events_fired": events,
            "fleet.events_per_s": events / sum(cell_s),
            "experiments.parallel_efficiency": mean_cell_s / per_cell_s,
            "experiments.per_cell_overhead_ms": 1e3 * (per_cell_s - mean_cell_s),
            "simclock.events_per_s": self._clock_events_per_s(),
            "telemetry.traced_cell_slowdown": traced_s
            / sum(cell_s[: len(traced_specs)]),
        }

    def _clock_events_per_s(self) -> float:
        """Self-rescheduling chains, a quarter of whose hops also schedule
        a decoy that is cancelled before it fires."""
        chains = self.params["simclock_chains"]
        per_chain = self.params["simclock_events"] // chains
        clock = SimClock()
        doomed: list = []

        def noop() -> None:
            pass

        def make_chain(offset: float) -> None:
            remaining = [per_chain]

            def hop() -> None:
                remaining[0] -= 1
                if remaining[0] > 0:
                    clock.schedule(1.0, hop)
                    if remaining[0] % 4 == 0:
                        doomed.append(clock.schedule(5.0, noop))
                        if len(doomed) >= 512:
                            for handle in doomed:
                                handle.cancel()
                            doomed.clear()

            clock.schedule(offset, hop)

        for chain in range(chains):
            make_chain(1.0 + chain / chains)
        start = time.perf_counter()
        fired = clock.run(max_events=2 * self.params["simclock_events"])
        return fired / (time.perf_counter() - start)
