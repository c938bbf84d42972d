"""How a sweep fails, and how it comes back.

A cell that raises is quarantined where it ran — to the same record
serially and pooled — or, fail-fast, re-raises its own exception.  A
worker that dies ends the run with an error naming its chunk; nothing
is retried.  The journal is the one way back: the finished cells are
on disk, and ``--resume`` (or ``resume=True``) computes only the rest,
to the bytes of a run that never failed.  Ctrl-C and a SIGKILL of the
parent leave no worker behind.  The drawn version of the resume half
is ``test_resume_contract.py``.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common import report_from_json
from repro.experiments import (
    ScenarioGrid,
    SweepRunner,
    fork_available,
    grid_from_json,
    load_journal,
    quick_grid,
)
import repro.experiments.runner as runner_module
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

from .faults import kill_on_cell, raise_on_cells

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the pooled arms require fork"
)


def chaos_grid(seeds=(0, 1, 2), duration_s=1_800.0):
    """One mix x two fault schedules: 2 cells per seed, fast to run."""
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
        faults=(
            ("none", ()),
            ("storm", ()),
        ),
        duration_s=duration_s,
    )


class TestCellFailures:
    def test_serial_and_pooled_quarantine_byte_identical(self):
        grid = chaos_grid()
        victim = grid.scenario_at(3).name
        with raise_on_cells(victim, message="simulated scenario failure"):
            serial = SweepRunner(grid, jobs=1).run(grid_name="chaos")
            pooled = SweepRunner(grid, jobs=2, chunk_cells=2).run(grid_name="chaos")
        assert [r.name for r in serial.quarantined] == [victim]
        assert serial.quarantined[0].error == "RuntimeError: simulated scenario failure"
        assert serial.quarantined[0].jobs_submitted == 0
        assert serial.metrics()["sweep.quarantined"] == 1.0
        assert "quarantined: 1 poison cell" in serial.render()
        assert serial.deterministic_json() == pooled.deterministic_json()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_in_cell_exception_quarantines_identically(self, jobs):
        grid = chaos_grid(seeds=(0, 1, 2))
        victim = grid.scenario_at(4).name
        with raise_on_cells(victim):
            report = SweepRunner(grid, jobs=jobs, chunk_cells=2).run(
                grid_name="chaos"
            )
        assert [r.name for r in report.quarantined] == [victim]
        assert report.quarantined[0].error == "RuntimeError: injected poison cell"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_off_reraises_the_cell_s_exception(self, jobs):
        grid = chaos_grid(seeds=(0, 1))
        with raise_on_cells(grid.scenario_at(1).name, message="poison"):
            with pytest.raises(RuntimeError, match="^poison$"):
                SweepRunner(grid, jobs=jobs, chunk_cells=1, quarantine=False).run()


class TestWorkerDeath:
    @pytest.mark.parametrize("chunk", [1, 2, None])
    def test_names_its_chunk_and_the_journal_resumes(self, tmp_path, chunk):
        grid = chaos_grid()
        path = tmp_path / "run.journal.jsonl"
        with kill_on_cell(grid.scenario_at(3).name, exit_code=7):
            with pytest.raises(RuntimeError, match="died with exit code 7") as died:
                SweepRunner(grid, jobs=2, chunk_cells=chunk).run(
                    grid_name="chaos", journal_path=path
                )
        assert "while running items [" in str(died.value)
        assert "--resume" in str(died.value)
        assert multiprocessing.active_children() == []  # no orphan
        journaled = [record["name"] for record in load_journal(path).records]
        assert grid.scenario_at(3).name not in journaled
        resumed = SweepRunner(grid, jobs=2, chunk_cells=chunk).run(
            grid_name="chaos", journal_path=path, resume=True
        )
        clean = SweepRunner(grid, jobs=1).run(grid_name="chaos")
        assert resumed.deterministic_json() == clean.deterministic_json()


class TestJournaledResume:
    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("seeds", [(0, 1, 2), (3, 4, 5)])
    def test_killed_pooled_sweep_resumes_byte_identical(
        self, tmp_path, jobs, seeds
    ):
        grid = chaos_grid(seeds=seeds)
        uninterrupted = SweepRunner(grid, jobs=1).run(grid_name="chaos")
        path = tmp_path / "run.journal.jsonl"
        SweepRunner(grid, jobs=1).run(grid_name="chaos", journal_path=path)
        # Simulate SIGKILL after three cells: header + 3 records + a
        # torn half-written line.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]) + lines[4][:25])
        resumed = SweepRunner(grid, jobs=jobs, chunk_cells=2).run(
            grid_name="chaos", journal_path=path, resume=True
        )
        assert resumed.deterministic_json() == uninterrupted.deterministic_json()

    def test_resume_does_not_retry_quarantined_cells(self, tmp_path):
        grid = chaos_grid(seeds=(0, 1))
        path = tmp_path / "run.journal.jsonl"
        with raise_on_cells(grid.scenario_at(1).name):
            first = SweepRunner(grid, jobs=2, chunk_cells=1).run(
                grid_name="chaos", journal_path=path
            )
        assert len(first.quarantined) == 1
        # Resume without the fault: if the poison cell were recomputed
        # it would now succeed — it must restore instead.
        resumed = SweepRunner(grid, jobs=1).run(
            grid_name="chaos", journal_path=path, resume=True
        )
        assert [r.name for r in resumed.quarantined] == [
            r.name for r in first.quarantined
        ]
        assert resumed.deterministic_json() == first.deterministic_json()

    @pytest.mark.parametrize("fail_with", [KeyboardInterrupt, ValueError])
    def test_serial_journal_holds_exactly_the_finished_cells(
        self, tmp_path, monkeypatch, fail_with
    ):
        """An interrupt (or, fail-fast, a raising cell) mid-batch: the
        cells that finished before it are durable, nothing else is, and
        the journal resumes to the uninterrupted bytes."""
        grid = chaos_grid(seeds=(0, 1, 2))
        names = [spec.name for spec in grid.expand()]
        real = runner_module.run_scenario_spec

        def cut_short(spec, tracer=None):
            if spec.name == names[3]:  # mid-batch: batches are 2 cells
                raise fail_with("stop here")
            return real(spec, tracer)

        path = tmp_path / "run.journal.jsonl"
        with monkeypatch.context() as patched:
            patched.setattr(runner_module, "run_scenario_spec", cut_short)
            with pytest.raises(fail_with):
                SweepRunner(grid, jobs=1, quarantine=False).run(
                    grid_name="chaos", journal_path=path
                )
        assert [r["name"] for r in load_journal(path).records] == names[:3]
        resumed = SweepRunner(grid, jobs=1).run(
            grid_name="chaos", journal_path=path, resume=True
        )
        clean = SweepRunner(grid, jobs=1).run(grid_name="chaos")
        assert resumed.deterministic_json() == clean.deterministic_json()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_resume_keeps_a_quarantined_record(self, tmp_path, jobs):
        """``--no-quarantine --resume`` over a journal that holds a
        quarantined record: the flag governs cells this run computes,
        not what an earlier run already wrote down."""
        grid = quick_grid((0, 1))
        path = tmp_path / "run.journal.jsonl"
        with raise_on_cells("default/base/none/seed1"):
            first = SweepRunner(grid, jobs=2, chunk_cells=1).run(journal_path=path)
        assert [r.name for r in first.quarantined] == ["default/base/none/seed1"]
        whole = path.read_text().splitlines(keepends=True)
        poisoned = next(line for line in whole if '"quarantined"' in line)
        # The interrupted run: it got as far as the poison cell's record
        # and one healthy one.
        healthy = next(line for line in whole[1:] if line != poisoned)
        path.write_text(whole[0] + poisoned + healthy)
        resumed = SweepRunner(grid, jobs=jobs, quarantine=False).run(
            journal_path=path, resume=True
        )
        assert [(r.name, r.status, r.error) for r in resumed.quarantined] == [
            (r.name, r.status, r.error) for r in first.quarantined
        ]
        assert resumed.deterministic_json() == first.deterministic_json()


def _sweep_command(journal, out, jobs=2, seeds="0,1,2,3,4,5"):
    grid = {
        "seeds": [int(s) for s in seeds.split(",")],
        "duration_s": 3600,
        "mixes": {"default": {}},
        "configs": {"base": {"n_hdd_nodes": 10, "n_ssd_cache_nodes": 1}},
        "faults": {"none": [], "storm": []},
    }
    return [
        sys.executable,
        "-m",
        "repro.experiments",
        "sweep",
        "--grid",
        json.dumps(grid),
        "--jobs",
        str(jobs),
        "--resume",
        str(journal),
        "--out",
        str(out),
        "--quiet",
    ]


def _wait_for_journal(path, min_records, timeout_s=60.0, process=None):
    """Block until the journal holds *min_records* cell records."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.exists():
            lines = path.read_bytes().split(b"\n")
            if len([l for l in lines[1:] if l.strip()]) >= min_records:
                return
        if process is not None and process.poll() is not None:
            return  # finished before we could interfere; still valid
        time.sleep(0.01)
    raise AssertionError(f"journal never reached {min_records} records")


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for_group_exit(pgid, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker processes survived {what}")


class TestCrashRecoveryCli:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        journal = tmp_path / "run.journal.jsonl"
        out = tmp_path / "sweep.json"
        command = _sweep_command(journal, out)
        victim = subprocess.Popen(
            command,
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group: orphan check
        )
        try:
            _wait_for_journal(journal, min_records=2, process=victim)
        finally:
            victim.kill()  # SIGKILL the parent ONLY: no cleanup runs
            victim.wait()
        assert not out.exists() or victim.returncode == 0
        # Workers must notice the re-parenting and exit on their own —
        # SIGKILL gave the parent no chance to terminate them.
        _wait_for_group_exit(victim.pid, 15, "parent SIGKILL")
        # Resume the murdered sweep through the same CLI invocation.
        completed = subprocess.run(
            command, env=_cli_env(), capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        resumed = report_from_json(out.read_text())
        # Reference: the same grid, serial, never interrupted.
        grid_json = command[command.index("--grid") + 1]
        reference = SweepRunner(grid_from_json(grid_json), jobs=1).run(
            grid_name="sweep"
        )
        assert (
            resumed.deterministic_json() == reference.deterministic_json()
        )

    def test_sigint_exits_resumable_without_orphans(self, tmp_path):
        journal = tmp_path / "run.journal.jsonl"
        out = tmp_path / "sweep.json"
        command = _sweep_command(journal, out, seeds="0,1,2,3,4,5,6,7")
        victim = subprocess.Popen(
            command,
            env=_cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own process group: orphan check
        )
        try:
            _wait_for_journal(journal, min_records=1, process=victim)
            victim.send_signal(signal.SIGINT)
            stderr = victim.communicate(timeout=60)[1]
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        if victim.returncode == 0:
            return  # the sweep won the race; nothing to resume
        assert victim.returncode == 130, stderr
        assert "resumable from" in stderr
        assert f"--resume {journal}" in stderr
        # No orphaned workers: the whole process group must be gone.
        _wait_for_group_exit(victim.pid, 10, "SIGINT")
        # And the journal it left behind resumes to completion.
        completed = subprocess.run(
            command, env=_cli_env(), capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        assert report_from_json(out.read_text()).metrics()[
            "sweep.quarantined"
        ] == 0.0
