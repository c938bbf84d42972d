"""SweepRunner execution, determinism, and SweepReport aggregation."""

import json
import math

import pytest

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import ConfigError
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric
from repro.experiments import (
    CELL_METRICS,
    ScenarioGrid,
    SweepReport,
    SweepRunner,
    run_scenario_spec,
)


def smoke_config():
    return FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=20, n_ssd_cache_nodes=2),
        n_trainer_nodes=16,
        pool=PoolConfig(max_workers=500),
    )


def smoke_grid(seeds=(0, 1, 2), faults=True, duration_s=3_600.0, horizon_s=None):
    fault_axis = (("none", ()),)
    if faults:
        fault_axis += (
            (
                "storm",
                (
                    FaultEvent(600, FaultKind.WORKER_CRASH, 4.0),
                    FaultEvent(1_200, FaultKind.DEGRADE_STORAGE, 0.5),
                    FaultEvent(2_400, FaultKind.RESTORE_STORAGE),
                ),
            ),
        )
    return ScenarioGrid(
        seeds=tuple(seeds),
        mixes=(
            ("default", FleetMix()),
            ("busy", FleetMix(exploratory_per_day=96.0)),
        ),
        configs=(("base", smoke_config()),),
        faults=fault_axis,
        duration_s=duration_s,
        horizon_s=horizon_s,
    )


def strip_wall(report):
    """Comparable rows: drop wall time, make NaN slots comparable."""
    rows = []
    for result in report.results:
        row = dict(result.__dict__)
        row.pop("wall_s")
        rows.append(
            {
                key: None
                if isinstance(value, float) and math.isnan(value)
                else value
                for key, value in row.items()
            }
        )
    return rows


class TestRunner:
    def test_serial_equals_parallel(self):
        grid = smoke_grid()
        serial = SweepRunner(grid, jobs=1).run()
        parallel = SweepRunner(grid, jobs=3).run()
        assert strip_wall(serial) == strip_wall(parallel)

    def test_rerun_is_deterministic(self):
        grid = smoke_grid(seeds=(5,), faults=False)
        first = SweepRunner(grid, jobs=1).run()
        second = SweepRunner(grid, jobs=1).run()
        assert strip_wall(first) == strip_wall(second)

    def test_zero_arrival_scenario_reports_empty(self):
        quiet = FleetMix(exploratory_per_day=0.001)
        grid = ScenarioGrid(
            seeds=(0,),
            mixes=(("quiet", quiet),),
            configs=(("base", smoke_config()),),
            duration_s=600.0,
        )
        report = SweepRunner(grid, jobs=1).run()
        (result,) = report.results
        assert result.jobs_submitted == 0
        assert math.isnan(result.aggregate_samples_per_s)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(smoke_grid(), jobs=0)

    def test_hundred_scenario_grid_completes(self):
        """The acceptance smoke: 100 scenarios, deterministic output."""
        grid = smoke_grid(seeds=tuple(range(25)), duration_s=1_800.0)
        assert len(grid) == 100
        report = SweepRunner(grid, jobs=4).run(grid_name="acceptance")
        assert len(report.results) == 100
        assert report.scenarios_per_s > 0
        again = SweepRunner(grid, jobs=2).run(grid_name="acceptance")
        assert strip_wall(report) == strip_wall(again)

    def test_fault_storms_move_the_distribution(self):
        grid = smoke_grid(seeds=(0, 1, 2, 3))
        report = SweepRunner(grid, jobs=1).run()
        stall = report.surface("mean_stall_fraction")
        assert (
            stall["default/base/storm"]["mean"]
            >= stall["default/base/none"]["mean"]
        )


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return SweepRunner(smoke_grid(), jobs=1).run(grid_name="unit")

    def test_cells_and_surfaces(self, report):
        assert set(report.cells) == {
            "default/base/none",
            "default/base/storm",
            "busy/base/none",
            "busy/base/storm",
        }
        for metric in CELL_METRICS:
            surface = report.surface(metric)
            assert set(surface) == set(report.cells)
            for entry in surface.values():
                assert set(entry) == {"p50", "p90", "p100", "mean"}

    def test_unknown_metric_rejected(self, report):
        with pytest.raises(ConfigError):
            report.surface("vibes")

    def test_json_round_trip(self, report, tmp_path):
        path = report.write(tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert payload["grid_name"] == "unit"
        assert len(payload["scenarios"]) == len(report.results)
        assert set(payload["surfaces"]) == set(CELL_METRICS)
        rebuilt = SweepReport.from_json(path.read_text())
        assert strip_wall(rebuilt) == strip_wall(report)

    def test_render_mentions_cells_and_throughput(self, report):
        text = report.render()
        assert "default/base/storm" in text
        assert "scenarios/s" in text

    def test_results_sorted_regardless_of_input_order(self, report):
        shuffled = SweepReport(list(reversed(report.results)), grid_name="unit")
        assert [r.name for r in shuffled.results] == [
            r.name for r in report.results
        ]


class TestCli:
    def test_quick_grid_writes_artifact(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "sweep.json"
        assert (
            main(
                ["sweep", "--quick", "--seeds", "0,1", "--jobs", "1",
                 "--out", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["scenarios"]
        assert "Scenario sweep" in capsys.readouterr().out

    def test_json_grid_via_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

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


def test_run_scenario_spec_smoke():
    spec = smoke_grid(seeds=(0,), faults=False).expand()[0]
    result = run_scenario_spec(spec)
    assert result.name == spec.name
    assert result.jobs_submitted >= result.jobs_completed > 0
    assert result.events_fired > 0
    assert result.wall_s > 0
