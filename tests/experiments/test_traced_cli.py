"""The experiment CLI's telemetry face: --trace and progress lines."""

import json

import pytest

from repro.common import report_from_json
from repro.common.errors import ConfigError
from repro.experiments import SweepRunner, quick_grid
from repro.experiments.__main__ import main
from repro.telemetry import Trace, validate_chrome_trace
from repro.telemetry.__main__ import main as telemetry_main


class TestRunTrace:
    def test_run_writes_revivable_trace_artifact(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "run",
                "dpp/cold-start",
                "--seed",
                "1",
                "--quiet",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "trace artifact" in capsys.readouterr().out
        trace = report_from_json(trace_path.read_text())
        assert isinstance(trace, Trace)
        assert trace.processes[0].name == "dpp/cold-start/seed1"
        assert trace.metrics()["trace.events"] > 0

    def test_trace_exports_to_valid_chrome_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "chrome.json"
        assert (
            main(
                [
                    "run",
                    "chaos/worst-case",
                    "--quiet",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert (
            telemetry_main(
                ["export", str(trace_path), str(chrome_path), "--validate"]
            )
            == 0
        )
        payload = json.loads(chrome_path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_untraced_run_still_works(self, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(["run", "dpp/steady-state", "--quiet", "--out", str(out)])
            == 0
        )
        assert out.exists()


class TestSweepTrace:
    def test_sweep_trace_identical_serial_vs_parallel(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = [
            "sweep",
            "--quick",
            "--seeds",
            "0,1",
            "--quiet",
        ]
        assert main(base + ["--jobs", "1", "--trace", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--trace", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()
        trace = report_from_json(serial.read_text())
        assert isinstance(trace, Trace)

    def test_progress_lines_go_to_stderr(self, capsys):
        assert main(["sweep", "--quick", "--seeds", "0", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "cells done" in captured.err
        assert "cells done" not in captured.out

    def test_quiet_suppresses_progress(self, capsys):
        assert (
            main(["sweep", "--quick", "--seeds", "0", "--jobs", "1", "--quiet"])
            == 0
        )
        assert capsys.readouterr().err == ""


class TestRefusedArguments:
    """Two arguments that cannot be honoured are refused by the runner,
    for library callers and the CLI alike — never silently dropped."""

    def test_resume_without_a_journal_path(self):
        with pytest.raises(ConfigError, match="journal_path"):
            SweepRunner(quick_grid((0,)), jobs=1).run(resume=True)

    def test_trace_with_a_journal(self, tmp_path):
        journal = tmp_path / "run.journal.jsonl"
        with pytest.raises(ConfigError, match="traced sweep takes no journal"):
            SweepRunner(quick_grid((0,)), jobs=1).run(
                trace=True, journal_path=journal
            )
        assert not journal.exists()

    @pytest.mark.parametrize("flag", ["--journal", "--resume"])
    def test_cli_trace_with_a_journal(self, tmp_path, flag):
        journal = tmp_path / "run.journal.jsonl"
        trace = tmp_path / "trace.json"
        with pytest.raises(ConfigError):
            main(
                ["sweep", "--quick", "--seeds", "0", "--quiet",
                 "--trace", str(trace), flag, str(journal)]
            )
        assert not journal.exists() and not trace.exists()
