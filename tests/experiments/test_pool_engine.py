"""The persistent pool engine: chunking, result delivery, determinism, crashes.

The contract under test: the chunked persistent pool, which hands each
finished chunk's values to its caller once, is *invisible* in every
artifact — serial, any ``jobs``, and any chunk size produce
byte-identical sweep reports, experiment reports, and merged traces —
while failure modes (a worker dying mid-chunk, an exception inside a
cell) surface loudly instead of hanging the drain loop.  (The self-healing behaviors layered on top —
requeue, bisection, quarantine, resume — live in
``test_fault_tolerance.py``; here we pin the legacy fail-fast
semantics callers get when no quarantine hook is installed.)
"""

import json
import math
import os

import pytest

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import ConfigError
from repro.experiments import (
    ExperimentRunner,
    ScenarioGrid,
    SweepRunner,
    auto_chunk_size,
    build_scenario,
    fan_out,
    fork_available,
    run_chunked,
)
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

from .oracles import naive_expand

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="persistent pool requires fork"
)


def pool_grid(seeds=(0, 1, 2)):
    """Two mixes x two fault schedules x >=3 seeds: mixed cells."""
    return ScenarioGrid(
        seeds=tuple(seeds),
        mixes=(
            ("default", FleetMix()),
            ("busy", FleetMix(exploratory_per_day=96.0)),
        ),
        configs=(
            (
                "base",
                FleetConfig(
                    fabric=StorageFabric(n_hdd_nodes=20, n_ssd_cache_nodes=2),
                    n_trainer_nodes=16,
                    pool=PoolConfig(max_workers=500),
                ),
            ),
        ),
        faults=(
            ("none", ()),
            (
                "storm",
                (
                    FaultEvent(600, FaultKind.WORKER_CRASH, 4.0),
                    FaultEvent(1_200, FaultKind.DEGRADE_STORAGE, 0.5),
                    FaultEvent(2_400, FaultKind.RESTORE_STORAGE),
                ),
            ),
        ),
        duration_s=3_600.0,
    )


def sweep_bytes(report) -> str:
    """The report's canonical JSON with the legitimately run-dependent
    fields neutralized: wall clock and the recorded fan-out width."""
    payload = report.payload()
    payload["total_wall_s"] = 0.0
    payload["jobs"] = 0
    for row in payload["scenarios"]:
        row["wall_s"] = 0.0
    return json.dumps(payload, sort_keys=True, allow_nan=True)


def experiment_bytes(report) -> str:
    payload = report.payload()
    payload["total_wall_s"] = 0.0
    payload["jobs"] = 0
    for entry in payload["entries"]:
        entry["wall_s"] = 0.0
    return json.dumps(payload, sort_keys=True, allow_nan=True)


class TestAutoChunkSize:
    def test_small_grids_get_single_cell_chunks(self):
        assert auto_chunk_size(1, 4) == 1
        assert auto_chunk_size(8, 4) == 1

    def test_scales_with_grid_over_jobs(self):
        assert auto_chunk_size(100, 4) == math.ceil(100 / 16)
        assert auto_chunk_size(100, 2) == math.ceil(100 / 8)

    def test_capped_for_huge_grids(self):
        assert auto_chunk_size(100_000, 4) == 32

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigError):
            auto_chunk_size(0, 4)
        with pytest.raises(ConfigError):
            auto_chunk_size(10, 0)


class TestGridIndex:
    def test_scenarios_match_grid_expansion(self):
        grid = pool_grid()
        expanded = naive_expand(grid)
        assert len(grid) == len(expanded)
        assert grid.expand() == expanded
        for index, spec in enumerate(expanded):
            assert grid.scenario_at(index) == spec


class TestSweepDeterminism:
    def test_byte_identity_across_jobs_and_chunk_sizes(self):
        grid = pool_grid()
        baseline = sweep_bytes(SweepRunner(grid, jobs=1).run())
        for jobs, chunk in ((2, None), (4, 1), (3, 5), (2, 100)):
            report = SweepRunner(grid, jobs=jobs, chunk_cells=chunk).run()
            assert sweep_bytes(report) == baseline, (jobs, chunk)

    def test_traced_reports_and_merged_traces_are_byte_identical(self):
        grid = pool_grid()
        base_report, base_trace = SweepRunner(grid, jobs=1).run(trace=True)
        base_trace_json = base_trace.to_json()
        for jobs, chunk in ((3, None), (2, 2)):
            report, trace = SweepRunner(
                grid, jobs=jobs, chunk_cells=chunk
            ).run(trace=True)
            assert sweep_bytes(report) == sweep_bytes(base_report), (jobs, chunk)
            assert trace.to_json() == base_trace_json, (jobs, chunk)

    def test_chunk_cells_validated(self):
        with pytest.raises(ConfigError):
            SweepRunner(pool_grid(), jobs=2, chunk_cells=0)


class TestExperimentDeterminism:
    def batch(self):
        return [
            build_scenario(name, seed=seed)
            for name in ("fleet/busy", "chaos/seeded", "dpp/worker-churn")
            for seed in (0, 1, 2)
        ]

    def test_mixed_kinds_byte_identical_across_jobs(self):
        baseline = experiment_bytes(
            ExperimentRunner(self.batch(), jobs=1).run("mixed")
        )
        for jobs in (2, 4):
            report = ExperimentRunner(self.batch(), jobs=jobs).run("mixed")
            assert experiment_bytes(report) == baseline, jobs

    def test_mixed_kinds_traced_merge_identical(self):
        base_report, base_trace = ExperimentRunner(
            self.batch(), jobs=1
        ).run("mixed", trace=True)
        report, trace = ExperimentRunner(self.batch(), jobs=3).run(
            "mixed", trace=True
        )
        assert experiment_bytes(report) == experiment_bytes(base_report)
        assert trace.to_json() == base_trace.to_json()


def _square(value):
    return value * value


def _die_on_five(value):
    if value == 5:
        os._exit(3)  # simulate a segfault: no exception, no cleanup
    return value


def _raise_on_three(value):
    if value == 3:
        raise ValueError("cell 3 is poisoned")
    return value


def _interrupt_on_six(value):
    if value == 6:
        raise KeyboardInterrupt
    return value


class ChunkLog:
    """An ``on_chunk`` callback that keeps every ``(start, stop, values)``."""

    def __init__(self):
        self.reports = []

    def __call__(self, start, stop, values):
        self.reports.append((start, stop, list(values)))

    @property
    def ranges(self):
        return [(start, stop) for start, stop, _ in self.reports]

    def assert_carries(self, results):
        """Each range arrived with exactly the values ``fan_out`` returned
        for it, and no index is covered twice."""
        for start, stop, values in self.reports:
            assert values == results[start:stop], (start, stop)
        covered = [i for start, stop in self.ranges for i in range(start, stop)]
        assert len(covered) == len(set(covered))


def _fast_policy(fault_hook):
    from repro.experiments import PoolPolicy

    return PoolPolicy(
        backoff_base_s=0.001, backoff_cap_s=0.01, fault_hook=fault_hook
    )


class TestChunkReports:
    """``on_chunk`` is where a caller makes finished work durable: every
    index that finishes is covered by exactly one range, inline and
    pooled, whatever cuts the run short, and each range carries exactly
    the values ``fan_out`` returns for it."""

    def test_inline_arm_walks_the_pool_s_ranges(self):
        log = ChunkLog()
        results = fan_out(
            list(range(10)), _square, jobs=1, chunk_size=4, on_chunk=log
        )
        assert log.ranges == [(0, 4), (4, 8), (8, 10)]
        log.assert_carries(results)

    def test_inline_arm_reports_the_finished_prefix_when_fn_raises(self):
        log = ChunkLog()
        with pytest.raises(ValueError, match="cell 3 is poisoned"):
            fan_out(
                list(range(8)),
                _raise_on_three,
                jobs=1,
                chunk_size=5,
                on_chunk=log,
            )
        assert log.reports == [(0, 3, [0, 1, 2])]

    def test_inline_arm_reports_the_finished_prefix_on_interrupt(self):
        log = ChunkLog()
        with pytest.raises(KeyboardInterrupt):
            fan_out(
                list(range(12)),
                _interrupt_on_six,
                jobs=1,
                chunk_size=4,
                on_chunk=log,
            )
        assert log.reports == [(0, 4, [0, 1, 2, 3]), (4, 6, [4, 5])]

    def test_inline_arm_never_covers_a_quarantined_index(self):
        log, failed = ChunkLog(), []

        def on_item_failed(index, detail):
            # Called the moment the item is isolated: its finished
            # predecessors have been reported, nothing after it has.
            failed.append((index, detail, list(log.ranges)))
            return None

        results = fan_out(
            list(range(8)),
            _raise_on_three,
            jobs=1,
            chunk_size=4,
            on_item_failed=on_item_failed,
            on_chunk=log,
        )
        assert results == [0, 1, 2, None, 4, 5, 6, 7]
        assert failed == [(3, "ValueError: cell 3 is poisoned", [(0, 3)])]
        assert log.ranges == [(0, 3), (4, 8)]
        log.assert_carries(results)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_pooled_arm_covers_every_index_once_under_kill_and_requeue(
        self, tmp_path, jobs, chunk_size
    ):
        from repro.experiments import PoolStats, fault_kill_on_cell

        log = ChunkLog()
        stats = PoolStats()
        results = fan_out(
            list(range(12)),
            _square,
            jobs=jobs,
            chunk_size=chunk_size,
            policy=_fast_policy(
                fault_kill_on_cell(5, once_marker=tmp_path / "died")
            ),
            stats=stats,
            on_chunk=log,
        )
        assert results == [value * value for value in range(12)]
        assert stats.requeues >= 1
        covered = [i for start, stop in log.ranges for i in range(start, stop)]
        assert sorted(covered) == list(range(12))
        log.assert_carries(results)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_pooled_arm_never_covers_a_quarantined_index(self, jobs, chunk_size):
        from repro.experiments import PoolStats, fault_kill_on_cell

        log = ChunkLog()
        stats = PoolStats()
        results = fan_out(
            list(range(12)),
            _square,
            jobs=jobs,
            chunk_size=chunk_size,
            policy=_fast_policy(fault_kill_on_cell(5)),
            on_item_failed=lambda index, detail: ("quarantined", index),
            stats=stats,
            on_chunk=log,
        )
        assert results == [
            ("quarantined", 5) if value == 5 else value * value
            for value in range(12)
        ]
        assert stats.quarantined_cells == 1
        covered = [i for start, stop in log.ranges for i in range(start, stop)]
        assert sorted(covered) == [i for i in range(12) if i != 5]
        log.assert_carries(results)


class TestPoolFailureModes:
    def test_fan_out_matches_serial_map(self):
        items = list(range(23))
        expected = [_square(item) for item in items]
        assert fan_out(items, _square, jobs=3, chunk_size=4) == expected
        assert fan_out(items, _square, jobs=2) == expected

    def test_worker_crash_mid_chunk_fails_loudly(self):
        with pytest.raises(RuntimeError, match="died with exit code 3"):
            fan_out(list(range(12)), _die_on_five, jobs=2, chunk_size=3)

    def test_cell_exception_reraises_original_type(self):
        with pytest.raises(ValueError, match="cell 3 is poisoned"):
            fan_out(list(range(8)), _raise_on_three, jobs=2, chunk_size=2)

    def test_progress_advances_per_cell_not_per_chunk(self):
        calls = []
        fan_out(
            list(range(12)),
            _square,
            jobs=2,
            chunk_size=6,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(done, 12) for done in range(1, 13)]

    def test_run_chunked_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigError):
            run_chunked(
                lambda a, b, c: None,
                4,
                jobs=2,
                chunk_size=0,
                on_chunk=lambda start, stop, values: None,
            )

    def test_run_chunked_rejects_zero_jobs(self):
        with pytest.raises(ConfigError, match="at least one worker"):
            run_chunked(
                lambda a, b, c: [],
                4,
                jobs=0,
                on_chunk=lambda start, stop, values: None,
            )


class TestFanOutArguments:
    """Both arms check their arguments the same way, before either runs."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_below_one_item_is_refused(self, jobs, chunk_size):
        with pytest.raises(ConfigError, match="chunk size"):
            fan_out(list(range(5)), _square, jobs=jobs, chunk_size=chunk_size)

    @pytest.mark.parametrize("n_items", [1, 5])
    def test_zero_jobs_is_refused(self, n_items):
        with pytest.raises(ConfigError, match="at least one worker"):
            fan_out(list(range(n_items)), _square, jobs=0, chunk_size=4)
