"""Chaos for the harness: the self-healing pool and crash-safe sweeps.

Three layers under test, driven by the pool's deterministic
fault-injection hooks:

* **requeue** — a worker killed mid-chunk is respawned, its chunk
  retried, and the sweep completes byte-identical to a run that never
  crashed (across job counts and seed sets);
* **quarantine** — a cell that keeps killing or failing its worker is
  bisected down, isolated, and reported as a quarantined
  ``ScenarioResult`` instead of sinking the campaign — identically in
  serial and pooled runs;
* **resume** — a journaled sweep SIGKILL'd (or Ctrl-C'd) mid-run picks
  up from its journal and produces a byte-identical report, proven
  in-process and through the real CLI in a real subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common import report_from_json
from repro.experiments import (
    PoolPolicy,
    ScenarioGrid,
    SweepRunner,
    fault_kill_on_cell,
    fault_raise_on_cell,
    fork_available,
)
import repro.experiments.runner as runner_module
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the self-healing pool requires fork"
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


def _stable_row(result):
    """A result's deterministic fields (wall clock out, nan → None)."""
    from repro.common.serialization import null_specials

    row = null_specials(result.to_row())
    row.pop("wall_s")
    return row


def fast_policy(**overrides):
    """The default supervision knobs with test-speed backoff."""
    overrides.setdefault("backoff_base_s", 0.001)
    overrides.setdefault("backoff_cap_s", 0.01)
    return PoolPolicy(**overrides)


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("seeds", [(0, 1, 2), (3, 4, 5)])
    def test_transient_crash_retries_to_byte_identity(
        self, tmp_path, jobs, seeds
    ):
        grid = chaos_grid(seeds=seeds)
        clean = SweepRunner(grid, jobs=1).run(grid_name="chaos")
        policy = fast_policy(
            fault_hook=fault_kill_on_cell(
                2, once_marker=tmp_path / f"died-{jobs}"
            )
        )
        report = SweepRunner(
            grid, jobs=jobs, chunk_cells=2, policy=policy
        ).run(grid_name="chaos")
        assert not report.quarantined
        assert report.deterministic_json() == clean.deterministic_json()
        # The crashed chunk was retried; whether by a respawned worker
        # or a surviving sibling is a scheduling detail.
        assert report.extras["fault_tolerance"]["requeues"] >= 1

    def test_sole_worker_death_forces_a_respawn(self, tmp_path):
        from repro.experiments import PoolStats, run_chunked

        marker = tmp_path / "died"

        def work(start, stop, cell_done):
            if not marker.exists() and start <= 3 < stop:
                marker.touch()
                os._exit(9)
            return list(range(start, stop))

        stats = PoolStats()
        completed = []
        run_chunked(
            work,
            8,
            jobs=1,
            chunk_size=2,
            policy=fast_policy(),
            stats=stats,
            on_chunk=lambda start, stop, values: completed.append(
                (start, stop, values)
            ),
        )
        # One seat: only a respawn can finish the requeued chunk.
        assert sorted(completed) == [
            (0, 2, [0, 1]), (2, 4, [2, 3]), (4, 6, [4, 5]), (6, 8, [6, 7]),
        ]
        assert stats.respawns == 1
        assert stats.requeues == 1

    def test_crash_counters_stay_out_of_clean_runs(self):
        grid = chaos_grid(seeds=(0, 1, 2))
        report = SweepRunner(grid, jobs=2).run(grid_name="chaos")
        assert "fault_tolerance" not in report.extras

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_persistent_worker_killer_quarantined(self, jobs):
        grid = chaos_grid(seeds=(0, 1, 2))
        policy = fast_policy(fault_hook=fault_kill_on_cell(1, exit_code=7))
        report = SweepRunner(
            grid, jobs=jobs, chunk_cells=3, policy=policy
        ).run(grid_name="chaos")
        assert [r.name for r in report.quarantined] == [grid.expand()[1].name]
        poisoned = report.quarantined[0]
        assert poisoned.error == "worker died with exit code 7"
        assert poisoned.jobs_submitted == 0
        # Every other cell still carries its real simulation result.
        ok = [r for r in report.results if r.status == "ok"]
        assert len(ok) == len(grid) - 1
        clean = {
            r.name: _stable_row(r)
            for r in SweepRunner(grid, jobs=1).run(grid_name="chaos").results
        }
        assert all(_stable_row(r) == clean[r.name] for r in ok)
        counters = report.extras["fault_tolerance"]
        assert counters["quarantined_cells"] == 1
        assert counters["bisections"] >= 1
        assert report.metrics()["sweep.quarantined"] == 1.0
        assert "quarantined: 1 poison cell" in report.render()

    def test_quarantine_off_fails_fast(self):
        grid = chaos_grid(seeds=(0, 1))
        policy = fast_policy(fault_hook=fault_kill_on_cell(0, exit_code=5))
        with pytest.raises(RuntimeError, match="poison cell 0"):
            SweepRunner(
                grid, jobs=2, chunk_cells=1, policy=policy, quarantine=False
            ).run()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_in_cell_exception_quarantines_identically(self, jobs):
        grid = chaos_grid(seeds=(0, 1, 2))
        policy = fast_policy(
            fault_hook=fault_raise_on_cell(4, "injected poison cell")
        )
        report = SweepRunner(
            grid, jobs=jobs, chunk_cells=2, policy=policy
        ).run(grid_name="chaos")
        assert [r.name for r in report.quarantined] == [grid.expand()[4].name]
        assert "injected poison cell" in report.quarantined[0].error

    def test_serial_and_pooled_quarantine_byte_identical(self, monkeypatch):
        grid = chaos_grid(seeds=(0, 1, 2))
        victim = grid.expand()[3].name
        real = runner_module.run_scenario_spec

        def flaky(spec, tracer=None):
            if spec.name == victim:
                raise ValueError("simulated scenario failure")
            return real(spec, tracer)

        monkeypatch.setattr(runner_module, "run_scenario_spec", flaky)
        serial = SweepRunner(grid, jobs=1).run(grid_name="chaos")
        pooled = SweepRunner(
            grid, jobs=2, chunk_cells=2, policy=fast_policy()
        ).run(grid_name="chaos")
        assert [r.name for r in serial.quarantined] == [victim]
        assert (
            serial.quarantined[0].error
            == "ValueError: simulated scenario failure"
        )
        assert serial.deterministic_json() == pooled.deterministic_json()

    def test_chunk_timeout_quarantines_stuck_cell(self, monkeypatch):
        grid = chaos_grid(seeds=(0, 1))
        victim = grid.expand()[2].name
        real = runner_module.run_scenario_spec

        def stuck(spec, tracer=None):
            if spec.name == victim:
                time.sleep(60)
            return real(spec, tracer)

        monkeypatch.setattr(runner_module, "run_scenario_spec", stuck)
        policy = fast_policy(max_chunk_retries=0, chunk_timeout_s=0.75)
        report = SweepRunner(
            grid, jobs=2, chunk_cells=1, policy=policy
        ).run(grid_name="chaos")
        assert [r.name for r in report.quarantined] == [victim]
        assert report.quarantined[0].error == "chunk timed out after 0.75s"
        assert report.extras["fault_tolerance"]["timeouts"] >= 1


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
        assert (
            resumed.deterministic_json() == uninterrupted.deterministic_json()
        )

    def test_resume_does_not_retry_quarantined_cells(self, tmp_path):
        grid = chaos_grid(seeds=(0, 1))
        path = tmp_path / "run.journal.jsonl"
        policy = fast_policy(
            fault_hook=fault_raise_on_cell(1, "injected poison cell")
        )
        first = SweepRunner(grid, jobs=2, chunk_cells=1, policy=policy).run(
            grid_name="chaos", journal_path=path
        )
        assert len(first.quarantined) == 1
        # Resume WITHOUT the fault hook: if the poison cell were
        # recomputed it would now succeed — it must restore instead.
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
        from repro.experiments import load_journal

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
        from repro.experiments import quick_grid

        grid = quick_grid((0, 1))
        path = tmp_path / "run.journal.jsonl"
        policy = fast_policy(
            fault_hook=fault_raise_on_cell(1, "injected poison cell")
        )
        first = SweepRunner(grid, jobs=2, chunk_cells=1, policy=policy).run(
            journal_path=path
        )
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
        # SIGKILL gave the supervisor no chance to terminate them.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                os.killpg(victim.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("worker processes survived parent SIGKILL")
        # Resume the murdered sweep through the same CLI invocation.
        completed = subprocess.run(
            command, env=_cli_env(), capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        resumed = report_from_json(out.read_text())
        # Reference: the same grid, serial, never interrupted.
        grid_json = command[command.index("--grid") + 1]
        from repro.experiments import grid_from_json

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
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(victim.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("worker processes survived SIGINT")
        # And the journal it left behind resumes to completion.
        completed = subprocess.run(
            command, env=_cli_env(), capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
        assert report_from_json(out.read_text()).metrics()[
            "sweep.quarantined"
        ] == 0.0
