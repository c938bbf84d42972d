"""The experiment CLI: list, run and sweep."""

import hashlib
import json

import pytest

from repro.common import report_from_json
from repro.common.errors import ConfigError
from repro.experiments import SCENARIOS, build_scenario
from repro.experiments.__main__ import main

#: sha256 of ``run NAME --seed 0 --spec`` for every registered scenario.
#: The printed spec is the document the journal's ``spec_hash`` hashes,
#: so a moved byte here would disqualify every journaled cell.
SPEC_SHA256 = {
    "chaos/backlogged-crash": "7db3d1001655188b4d2c02f588da7173be847c21d3206628bc021e013b56b332",
    "chaos/restart-drill": "17e076b06457a629246c6eecfae19bfb2107233e59d4e2466bc011a64fa1e38e",
    "chaos/seeded": "42bba987ebcfcfd4cb1b8a8300c369a178d0016a11e0f9da055d8f234fdc2791",
    "chaos/worst-case": "6aa45896929cac2c214e7fe0f1ae59dcbdf1f23da609dbbcc93500a1a3ced8f0",
    "dpp/cold-start": "7c414881b0b45fbc46a8f1ebc100ffbbf7c314f82790f5b095f9de2dc5516169",
    "dpp/steady-state": "21f9d8aa1602845f95d029ce7fd83743b9ff1e129d07cf1050923afdf9420874",
    "dpp/worker-churn": "8cf4b82cdb447b1bfdb9890423ab0e5b758831c5b3250c63f3d7dc130b934c9e",
    "fleet/busy": "435bb2890d01134a0923890218c9f36aea370f2ed5d88875d61d52a6891bafd9",
    "fleet/calm": "2cc2742b6ad49809ded2f8a279e4e7bcae46d61a59cd6f9914c5c67c6f637e12",
    "fleet/default": "329308324c990ff45248afbc2f38939cafb122875df54d86a6c98e801f994ee5",
    "fleet/storm": "7ede69b603c53de98eb2262d6068670535b03778a1f3ba5a886d283942056466",
    "serving/bursty": "d59d6ae828b6d595c9ed38ae5e29328e89ec72decf6bf2e9f195bf7cf59dd89e",
    "serving/overload": "5d801b45dfd285e7f66043415ca3da8352e429a8c565730b3c767ed2cc20cfbe",
    "serving/steady": "3aaaf4df47a5cb6c753d40fe03a82657397d938257bea72f690848028229cfe0",
}

#: sha256 of ``list`` (key None) and of ``list --kind KIND``.
LIST_SHA256 = {
    None: "fb1cc3d54781065ef3b9e971bfe99d470b760f43e673b72c04f00f17419fbccc",
    "chaos": "4ff1821386453bada4ec5bf6b7acb21d59c9d604db050d10bb51b0af9609127b",
    "dpp": "90207cef23c7e52ed55d9ba322c0abd66277ea7c3edba0db9d978c169eb96440",
    "fleet": "f44027dd297b7d54dc4afd1101d2dfb932496d3b214ad146223448fa50f79d2c",
    "serving": "7073fe69275c673f2b9c7ca360783b72541ecf1fdef0e3906a794f999a707fc5",
}


def sha256_of_output(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
        assert main(["run", "fleet/storm", "--seed", "2", "--spec"]) == 0
        spec = capsys.readouterr().out
        assert spec == build_scenario("fleet/storm", seed=2).to_json()
        assert json.loads(spec)["scenario"] == "fleet"

    def test_every_scenario_has_a_pinned_spec(self):
        assert set(SPEC_SHA256) == set(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SPEC_SHA256))
    def test_run_spec_keeps_its_bytes(self, name, capsys):
        argv = ["run", name, "--seed", "0", "--spec"]
        assert sha256_of_output(capsys, argv) == SPEC_SHA256[name]

    @pytest.mark.parametrize("kind", list(LIST_SHA256), ids=str)
    def test_list_keeps_its_bytes(self, kind, capsys):
        argv = ["list"] if kind is None else ["list", "--kind", kind]
        assert sha256_of_output(capsys, argv) == LIST_SHA256[kind]

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
