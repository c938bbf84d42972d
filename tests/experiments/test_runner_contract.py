"""The runner's contract, held by generated damage and a naive oracle.

Whatever happens to a campaign — its journal cut at any byte, a byte of
it flipped, a pool worker killed at any cell, any fan-out width and
chunk size — the runner either
reproduces ``oracles.naive_sweep`` byte for byte or refuses loudly; it
never hands back a quietly different artifact.  Since journal version
2 carries a CRC per record, that includes a flip inside a result row's
values, which version 1 restored as written.  The drawn version of the
same contract, over poisoned cells and stale journals too, is
``test_resume_contract.py``.
"""

import dataclasses
import multiprocessing
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import FormatError
from repro.common.serialization import dump_json, null_specials
from repro.experiments import (
    RunJournal,
    ScenarioGrid,
    SweepRunner,
    build_scenario,
    fork_available,
    list_scenarios,
    load_journal,
)
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric
from repro.telemetry import Tracer

from .faults import kill_on_cell
from .oracles import naive_expand, naive_sweep

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the pooled arms require fork"
)

STORM = (
    FaultEvent(300, FaultKind.WORKER_CRASH, 4.0),
    FaultEvent(600, FaultKind.DEGRADE_STORAGE, 0.5),
    FaultEvent(1_200, FaultKind.RESTORE_STORAGE),
)
MIXES = {
    "default": FleetMix(),
    "busy": FleetMix(exploratory_per_day=96.0, burst_probability=0.4),
}


def contract_grid(seeds=(0, 1), mixes=("default",), faults=("none", "storm")):
    """A small region, a half-hour trace and a horizon that cuts the
    jobs short: cells cost half a millisecond, so thousands of resumes
    fit in a tier-1 run, and every row carries ``nan`` ratios through
    the journal."""
    return ScenarioGrid(
        seeds=tuple(seeds),
        mixes=tuple((name, MIXES[name]) for name in mixes),
        configs=(
            (
                "base",
                FleetConfig(
                    fabric=StorageFabric(n_hdd_nodes=10, n_ssd_cache_nodes=1),
                    n_trainer_nodes=8,
                    pool=PoolConfig(max_workers=200),
                ),
            ),
        ),
        faults=tuple(
            (name, STORM if name == "storm" else ()) for name in faults
        ),
        duration_s=1_800.0,
        horizon_s=1_300.0,
    )


def written_journal(grid, path) -> bytes:
    SweepRunner(grid, jobs=1).run("contract", journal_path=path)
    return path.read_bytes()


def resumed(grid, path, data: bytes, jobs: int = 1) -> str:
    path.write_bytes(data)
    report = SweepRunner(grid, jobs=jobs).run(
        "contract", journal_path=path, resume=True
    )
    return report.deterministic_json()


# -- (a) the journal cut at every byte -----------------------------------------


class TestTruncatedJournal:
    """A SIGKILL can stop an append after any byte.  Every prefix of a
    journal must therefore resume — and to the oracle's bytes."""

    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        grid = contract_grid(seeds=(0, 2, 3), faults=("storm",))
        path = tmp_path_factory.mktemp("cut") / "run.journal.jsonl"
        whole = written_journal(grid, path)
        return grid, path, whole, naive_sweep(grid, "contract").deterministic_json()

    def test_every_prefix_resumes_to_the_oracle_serially(self, case):
        grid, path, whole, expected = case
        for cut in range(len(whole) + 1):
            assert resumed(grid, path, whole[:cut]) == expected, cut

    def test_every_kind_of_prefix_resumes_to_the_oracle_pooled(self, case):
        """What a prefix restores depends only on how many whole lines
        it holds and whether a torn one follows (the serial pass above
        walks every byte); the pool arm takes the edges and the middle
        of every line."""
        grid, path, whole, expected = case
        cuts = {0, len(whole)}
        start = 0
        for line in whole.splitlines(keepends=True):
            stop = start + len(line)
            cuts |= {start + 1, (start + stop) // 2, stop - 1, stop}
            start = stop
        for cut in sorted(cuts):
            assert resumed(grid, path, whole[:cut], jobs=2) == expected, cut

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_torn_journal_resumes_twice(self, case, jobs):
        """The second kill of a campaign lands on a journal the first
        resume appended to: the torn line must not have been glued to
        the record that followed it."""
        grid, path, whole, expected = case
        lines = whole.splitlines(keepends=True)
        torn = lines[0] + lines[1][:40]
        assert resumed(grid, path, torn, jobs=jobs) == expected
        healed = path.read_bytes().splitlines(keepends=True)
        assert len(load_journal(path).records) == len(grid)
        torn_again = b"".join(healed[:3]) + healed[3][:40]
        assert resumed(grid, path, torn_again, jobs=jobs) == expected


# -- (b) one byte flipped ------------------------------------------------------


def rows_of(restored: dict) -> dict[int, str]:
    return {
        index: dump_json(null_specials(result.to_row()))
        for index, result in restored.items()
    }


class TestFlippedByte:
    @pytest.fixture(scope="class")
    def case(self, tmp_path_factory):
        grid = contract_grid(seeds=(0,))
        path = tmp_path_factory.mktemp("flip") / "run.journal.jsonl"
        whole = written_journal(grid, path)
        journal, restored = RunJournal.resume_or_create(path, grid, "contract")
        journal.close()
        assert sorted(restored) == list(range(len(grid)))
        return grid, path, whole, rows_of(restored)

    def test_a_flip_raises_or_restores_the_same_rows(self, case):
        """Every byte of the file, low bit flipped: the header, every
        key, value, quote, colon, comma, brace, CRC digit and newline.
        The journal either refuses with a ``FormatError`` or restores
        rows identical to the undamaged file's (fewer is fine: the last
        newline flipped reads as a torn tail, whose record recomputes),
        which by the truncation suite resumes to the oracle's bytes."""
        grid, path, whole, baseline = case
        unnoticed = set()
        for offset in range(len(whole)):
            damaged = bytearray(whole)
            damaged[offset] ^= 0x01
            path.write_bytes(damaged)
            try:
                journal, restored = RunJournal.resume_or_create(
                    path, grid, "contract"
                )
            except FormatError:
                continue
            journal.close()
            if any(
                row != baseline[index]
                for index, row in rows_of(restored).items()
            ):
                unnoticed.add(offset)
        assert not unnoticed, sorted(unnoticed)[:10]

    def test_a_flipped_metric_digit_raises(self, case):
        """One digit of ``jobs_submitted`` changed: version 1 restored it
        and the resumed report differed; version 2's CRC refuses it."""
        grid, path, whole, _ = case
        digit = re.search(rb'"jobs_submitted":(\d)', whole).start(1)
        damaged = bytearray(whole)
        damaged[digit] ^= 0x01
        with pytest.raises(FormatError, match="CRC does not match"):
            resumed(grid, path, bytes(damaged))


# -- (c) a pool worker killed at every cell ------------------------------------


class TestWorkerKilledAtEveryCell:
    """A worker that dies mid-cell (``os._exit``, as a segfault or an OOM
    kill ends it) is not retried: the run stops naming the chunk the
    worker held, keeps every chunk journaled before it, and a resume
    computes the rest."""

    GRID = contract_grid(seeds=(0, 1, 2))  # six cells

    @pytest.fixture(scope="class")
    def oracle(self):
        return naive_sweep(self.GRID, "contract")

    def killed_run(self, path, cell, jobs, chunk, resume=False) -> str:
        """Run (or resume) with cell *cell* killing its worker; return
        the error, after checking that no worker outlived it."""
        with kill_on_cell(self.GRID.scenario_at(cell).name, exit_code=7):
            with pytest.raises(RuntimeError, match="died with exit code 7") as died:
                SweepRunner(self.GRID, jobs=jobs, chunk_cells=chunk).run(
                    "contract", journal_path=path, resume=resume
                )
        assert multiprocessing.active_children() == [], cell
        assert "--resume <journal>" in str(died.value), cell
        return str(died.value)

    def journaled(self, path) -> list[str]:
        return [record["name"] for record in load_journal(path).records]

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_killed_once_equals_the_oracle(self, tmp_path, oracle, jobs, chunk):
        for cell in range(len(self.GRID)):
            path = tmp_path / f"killed-{cell}.journal.jsonl"
            error = self.killed_run(path, cell, jobs, chunk)
            # A fresh run's fan-out positions are the grid's cell indices.
            start, stop = map(
                int, re.search(r"while running items \[(\d+), (\d+)\)", error).groups()
            )
            assert start <= cell < stop, (cell, error)
            assert self.GRID.scenario_at(cell).name not in self.journaled(path)
            report = SweepRunner(self.GRID, jobs=jobs, chunk_cells=chunk).run(
                "contract", journal_path=path, resume=True
            )
            assert report.deterministic_json() == oracle.deterministic_json(), cell

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_killed_every_time_stops_each_resume_and_loses_nothing(
        self, tmp_path, oracle, jobs, chunk
    ):
        for cell in range(len(self.GRID)):
            path = tmp_path / f"killer-{cell}.journal.jsonl"
            self.killed_run(path, cell, jobs, chunk)
            first = self.journaled(path)
            # The resume meets the same cell and dies the same way; what
            # the first run journaled is still there.  (A resume left
            # with one cell runs it inline, where the kill would end
            # this process: only a pooled resume can be killed here.)
            if len(self.GRID) - len(first) > 1:
                self.killed_run(path, cell, jobs, chunk, resume=True)
            second = self.journaled(path)
            assert set(first) <= set(second), cell
            assert self.GRID.scenario_at(cell).name not in second, cell
            report = SweepRunner(self.GRID, jobs=jobs, chunk_cells=chunk).run(
                "contract", journal_path=path, resume=True
            )
            assert report.deterministic_json() == oracle.deterministic_json(), cell


# -- (d) drawn grids and drawn scenarios ---------------------------------------

grids = st.builds(
    contract_grid,
    seeds=st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True),
    mixes=st.sampled_from([("default",), ("busy",), ("default", "busy")]),
    faults=st.sampled_from([("none",), ("storm",), ("none", "storm")]),
)


@settings(max_examples=12, deadline=None)
@given(
    grid=grids,
    jobs=st.sampled_from([1, 2, 3]),
    chunk=st.sampled_from([None, 1, 2, 3, 5]),
)
def test_any_grid_any_width_any_chunk_equals_the_oracle(grid, jobs, chunk):
    expanded = naive_expand(grid)
    assert grid.expand() == expanded
    assert [grid.scenario_at(i) for i in range(len(grid))] == expanded
    report = SweepRunner(grid, jobs=jobs, chunk_cells=chunk).run("contract")
    assert (
        report.deterministic_json()
        == naive_sweep(grid, "contract").deterministic_json()
    )


def registry_scenario(name: str, seed: int):
    scenario = build_scenario(name, seed)
    if scenario.kind == "serving":
        # The registry's 2 000-request streams cost half a second each;
        # thirty requests run the same plane in twenty milliseconds.
        scenario = dataclasses.replace(scenario, n_requests=30)
    return scenario


def run_traced(scenario):
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    return scenario.run(tracer), tracer.freeze()


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from([entry.name for entry in list_scenarios()]),
    seed=st.integers(0, 3),
)
def test_any_scenario_is_rerun_identical_traced_or_not(name, seed):
    scenario = registry_scenario(name, seed)
    expected = scenario.run().to_json()
    report, trace = run_traced(scenario)
    assert report.to_json() == expected
    again, again_trace = run_traced(scenario)
    assert again.to_json() == expected
    assert again_trace.to_json() == trace.to_json()
    assert scenario.run().to_json() == expected
