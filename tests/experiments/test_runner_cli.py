"""The experiment CLI: list, run and sweep."""

import json

import pytest

from repro.common import report_from_json
from repro.common.errors import ConfigError
from repro.experiments import build_scenario
from repro.experiments.__main__ import main


class TestCli:
    def test_list_shows_all_kinds(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fleet/default", "chaos/worst-case", "dpp/steady-state"):
            assert name in out

    def test_list_kind_filter(self, capsys):
        assert main(["list", "--kind", "dpp"]) == 0
        out = capsys.readouterr().out
        assert "dpp/cold-start" in out
        assert "fleet/default" not in out

    @pytest.mark.parametrize(
        "name", ["fleet/default", "chaos/worst-case", "dpp/steady-state"]
    )
    def test_run_each_kind_writes_parseable_artifact(self, name, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", name, "--seed", "1", "--out", str(out)]) == 0
        revived = report_from_json(out.read_text())
        assert revived.to_json() == out.read_text()
        assert str(out) in capsys.readouterr().out

    def test_run_spec_prints_scenario_json(self, capsys):
        from repro.experiments import scenario_from_json

        assert main(["run", "fleet/storm", "--seed", "2", "--spec"]) == 0
        scenario = scenario_from_json(capsys.readouterr().out)
        assert scenario == build_scenario("fleet/storm", seed=2)

    def test_run_unknown_scenario_fails_loudly(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            main(["run", "fleet/nope"])

    def test_sweep_quick_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep",
                    "--quick",
                    "--seeds",
                    "0,1",
                    "--jobs",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["report"] == "sweep"
        assert payload["scenarios"]
        assert "Scenario sweep" in capsys.readouterr().out

    def test_sweep_json_grid_via_flag(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "seeds": [0],
                    "duration_s": 900,
                    "configs": {"base": {"n_hdd_nodes": 12, "n_trainer_nodes": 8}},
                }
            )
        )
        out = tmp_path / "report.json"
        assert (
            main(["sweep", "--grid", str(grid_path), "--out", str(out), "--quiet"])
            == 0
        )
        assert json.loads(out.read_text())["scenarios"]
