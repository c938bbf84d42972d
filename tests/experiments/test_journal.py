"""Run-journal recovery semantics: torn tails, grid drift, resumption.

The contract under test: a journaled sweep can be killed at any byte
and resumed to a byte-identical report — torn trailing lines recompute,
completed cells restore bit-for-bit, grown grids resume incrementally,
and a journal whose cells diverged from the current grid is refused
loudly instead of quietly mixing experiments.
"""

import json
import math

import pytest

from repro.common.errors import ConfigError, FormatError
from repro.experiments import (
    RunJournal,
    ScenarioGrid,
    SweepRunner,
    cell_identities,
    grid_hash,
    load_journal,
    spec_hash,
)
from repro.experiments.journal import JOURNAL_MAGIC
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric


def tiny_grid(seeds=(0, 1), duration_s=1_800.0):
    """One mix x one config x two fault schedules: 2 cells per seed."""
    return ScenarioGrid(
        seeds=tuple(seeds),
        mixes=(("default", FleetMix()),),
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
        duration_s=duration_s,
    )


def journal_lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestIdentityHashing:
    def test_spec_hash_covers_every_axis(self):
        base = tiny_grid().expand()[0]
        assert spec_hash(base) == spec_hash(tiny_grid().expand()[0])
        # A different seed or duration is a different cell identity.
        assert spec_hash(base) != spec_hash(tiny_grid().expand()[1])
        assert spec_hash(base) != spec_hash(
            tiny_grid(duration_s=900.0).expand()[0]
        )

    @pytest.mark.parametrize("seeds", [(0, 1), (5, 6, 7)])
    def test_grid_hash_tracks_the_seed_axis(self, seeds):
        identities = cell_identities(tiny_grid(seeds=seeds))
        assert len(identities) == len(tiny_grid(seeds=seeds))
        assert grid_hash(identities) == grid_hash(
            cell_identities(tiny_grid(seeds=seeds))
        )
        assert grid_hash(identities) != grid_hash(
            cell_identities(tiny_grid(seeds=(8, 9)))
        )


class TestJournalFile:
    def test_create_then_load_round_trips(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "run.journal.jsonl"
        report = SweepRunner(grid, jobs=1).run(journal_path=path)
        contents = load_journal(path)
        assert contents.header["magic"] == JOURNAL_MAGIC
        assert contents.header["grid_hash"] == grid_hash(cell_identities(grid))
        assert contents.header["cells"] == len(grid)
        assert not contents.torn
        assert len(contents.records) == len(grid)
        journaled = {r["name"] for r in contents.records}
        assert journaled == {result.name for result in report.results}
        # nan metrics survive the journal's strict JSON dialect.
        row = contents.records[0]["result"]
        assert set(row) >= {"aggregate_samples_per_s", "status", "error"}

    def test_torn_trailing_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(tiny_grid(), jobs=1).run(journal_path=path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])  # SIGKILL mid-append
        contents = load_journal(path)
        assert contents.torn
        assert len(contents.records) == len(tiny_grid()) - 1

    def test_empty_journal_resumes_as_fresh(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_bytes(b"")
        grid = tiny_grid()
        journal, restored = RunJournal.resume_or_create(path, grid, "t")
        journal.close()
        assert restored == {}
        assert load_journal(path).header["magic"] == JOURNAL_MAGIC

    def test_torn_header_resumes_as_fresh(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_bytes(b'{"magic": "repro-run-jour')  # died writing line 1
        journal, restored = RunJournal.resume_or_create(path, tiny_grid(), "t")
        journal.close()
        assert restored == {}
        assert load_journal(path).header["cells"] == len(tiny_grid())

    def test_interior_corruption_refused(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(tiny_grid(), jobs=1).run(journal_path=path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"  # terminated but unparseable
        path.write_text("".join(lines))
        with pytest.raises(FormatError, match="corrupt"):
            load_journal(path)

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text('{"report": "sweep"}\n')
        with pytest.raises(FormatError, match="magic"):
            load_journal(path)

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        path.write_text(
            json.dumps({"magic": JOURNAL_MAGIC, "version": 99}) + "\n"
        )
        with pytest.raises(FormatError, match="version"):
            load_journal(path)


class TestResume:
    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3, 4)])
    def test_full_journal_restores_every_cell(self, tmp_path, seeds):
        grid = tiny_grid(seeds=seeds)
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(journal_path=path)
        journal, restored = RunJournal.resume_or_create(path, grid, "t")
        journal.close()
        assert sorted(restored) == list(range(len(grid)))
        for index, result in restored.items():
            assert result.status == "ok"

    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3, 4)])
    def test_truncated_journal_resumes_byte_identical(self, tmp_path, seeds):
        grid = tiny_grid(seeds=seeds)
        uninterrupted = SweepRunner(grid, jobs=1).run(grid_name="t")
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(grid_name="t", journal_path=path)
        # Simulate a kill after two cells: keep header + 2 records.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        resumed = SweepRunner(grid, jobs=1).run(
            grid_name="t", journal_path=path, resume=True
        )
        assert (
            resumed.deterministic_json() == uninterrupted.deterministic_json()
        )
        # The resume only appended the missing cells.
        assert len(journal_lines(path)) == 1 + len(grid)

    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3)])
    def test_grown_grid_resumes_incrementally(self, tmp_path, seeds):
        small = tiny_grid(seeds=seeds)
        grown = tiny_grid(seeds=tuple(seeds) + (9,))
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(small, jobs=1).run(grid_name="t", journal_path=path)
        journal, restored = RunJournal.resume_or_create(path, grown, "t")
        journal.close()
        assert len(restored) == len(small)  # old cells restore...
        resumed = SweepRunner(grown, jobs=1).run(
            grid_name="t", journal_path=path, resume=True
        )
        uninterrupted = SweepRunner(grown, jobs=1).run(grid_name="t")
        assert (  # ...and the new seed's cells compute fresh.
            resumed.deterministic_json() == uninterrupted.deterministic_json()
        )

    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3)])
    def test_diverged_grid_refused(self, tmp_path, seeds):
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(tiny_grid(seeds=seeds), jobs=1).run(journal_path=path)
        changed = tiny_grid(seeds=seeds, duration_s=900.0)  # same names!
        with pytest.raises(ConfigError, match="grid hash"):
            RunJournal.resume_or_create(path, changed, "t")

    def test_duplicate_records_keep_the_latest(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(journal_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines) + lines[1])  # re-append cell 0
        journal, restored = RunJournal.resume_or_create(path, grid, "t")
        journal.close()
        assert sorted(restored) == list(range(len(grid)))

    def test_restored_metrics_are_bitwise_identical(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "run.journal.jsonl"
        direct = SweepRunner(grid, jobs=1).run(journal_path=path).results
        journal, restored = RunJournal.resume_or_create(path, grid, "t")
        journal.close()
        by_name = {r.name: r for r in direct}
        for result in restored.values():
            expected = by_name[result.name]
            for field_name, value in expected.__dict__.items():
                revived = getattr(result, field_name)
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(revived), field_name
                else:
                    assert revived == value, field_name


class TestGridIsHashedOncePerRun:
    """A journaled run hashes each cell's spec once — for the header (or
    the resume check) and for the records alike — not once in the
    journal and again in the runner before the pool forks."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        from repro.experiments import journal as journal_module

        calls = []

        def counting_spec_hash(scenario):
            calls.append(scenario.name)
            return spec_hash(scenario)

        monkeypatch.setattr(journal_module, "spec_hash", counting_spec_hash)
        return calls

    def test_create_arm(self, tmp_path, hashed):
        grid = tiny_grid()
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(journal_path=path)
        assert hashed == [scenario.name for scenario in grid.expand()]
        # The records carry those same hashes.
        assert [(r["name"], r["spec_hash"]) for r in load_journal(path).records] == (
            cell_identities(grid)
        )

    @pytest.mark.parametrize("kept_lines", [0, 1, 3, None])
    def test_resume_arm(self, tmp_path, hashed, kept_lines):
        """Missing file's twin (empty), header only, killed after two
        cells, and complete: each resumes with one pass over the grid."""
        grid = tiny_grid()
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(journal_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:kept_lines]))
        del hashed[:]
        SweepRunner(grid, jobs=1).run(journal_path=path, resume=True)
        assert hashed == [scenario.name for scenario in grid.expand()]
        assert [(r["name"], r["spec_hash"]) for r in load_journal(path).records] == (
            cell_identities(grid)
        )

    def test_resume_arm_without_a_file(self, tmp_path, hashed):
        grid = tiny_grid()
        SweepRunner(grid, jobs=1).run(
            journal_path=tmp_path / "absent.journal.jsonl", resume=True
        )
        assert hashed == [scenario.name for scenario in grid.expand()]
