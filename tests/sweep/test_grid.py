"""Scenario grids: expansion, naming, seeding, JSON parsing."""

import pytest

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import ConfigError
from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric
from repro.experiments import ScenarioGrid, grid_from_json


def tiny_config():
    return FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=10, n_ssd_cache_nodes=2),
        n_trainer_nodes=8,
        pool=PoolConfig(max_workers=200),
    )


def make_grid(**overrides):
    defaults = dict(
        seeds=(0, 1),
        mixes=(("default", FleetMix()),),
        configs=(("base", tiny_config()),),
        duration_s=3_600.0,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestExpansion:
    def test_cartesian_size_and_names(self):
        grid = make_grid(
            seeds=(0, 1, 2),
            mixes=(("a", FleetMix()), ("b", FleetMix(exploratory_per_day=96.0))),
            faults=(
                ("none", ()),
                ("storm", (FaultEvent(60, FaultKind.WORKER_CRASH, 2.0),)),
            ),
        )
        specs = grid.expand()
        assert len(specs) == len(grid) == 2 * 1 * 2 * 3
        names = [s.name for s in specs]
        assert names[0] == "a/base/none/seed0"
        assert "b/base/storm/seed2" in names
        assert len(set(names)) == len(names)

    def test_cell_strips_seed_axis(self):
        (spec, *_rest) = make_grid().expand()
        assert spec.cell == "default/base/none"
        assert spec.name.startswith(spec.cell)

    def test_expansion_is_deterministic(self):
        grid = make_grid(seeds=(3, 1, 2))
        assert [s.name for s in grid.expand()] == [s.name for s in grid.expand()]

    def test_fault_seed_stable_and_distinct(self):
        specs = make_grid(seeds=(0, 1)).expand()
        assert specs[0].fault_seed == specs[0].fault_seed
        assert specs[0].fault_seed != specs[1].fault_seed

    def test_specs_pickle(self):
        import pickle

        for spec in make_grid().expand():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec


class TestValidation:
    def test_empty_seed_axis_rejected(self):
        with pytest.raises(ConfigError):
            make_grid(seeds=())

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigError):
            make_grid(mixes=(("dup", FleetMix()), ("dup", FleetMix())))

    def test_session_scoped_faults_rejected(self):
        with pytest.raises(ConfigError):
            make_grid(
                faults=(("bad", (FaultEvent(0, FaultKind.MASTER_FAILOVER),)),)
            ).expand()


class TestJsonGrids:
    def test_full_schema_round_trip(self, tmp_path):
        spec = {
            "seeds": [0, 7],
            "duration_s": 1_800,
            "mixes": {"default": {}, "busy": {"exploratory_per_day": 96}},
            "configs": {"base": {"n_hdd_nodes": 12, "n_trainer_nodes": 16}},
            "faults": {
                "none": [],
                "storm": [
                    {"kind": "worker_crash", "at_s": 600, "magnitude": 4},
                    {"kind": "degrade_storage", "at_s": 900, "magnitude": 0.5},
                ],
            },
        }
        grid = grid_from_json(spec)
        assert len(grid) == 2 * 1 * 2 * 2
        busy = dict(grid.mixes)["busy"]
        assert busy.exploratory_per_day == 96
        base = dict(grid.configs)["base"]
        assert base.fabric.n_hdd_nodes == 12
        assert base.n_trainer_nodes == 16
        storm = dict(grid.faults)["storm"]
        assert storm[0].kind is FaultKind.WORKER_CRASH
        # Also parses from a file path and inline text.
        path = tmp_path / "grid.json"
        import json

        path.write_text(json.dumps(spec))
        assert len(grid_from_json(path)) == len(grid)
        assert len(grid_from_json(json.dumps(spec))) == len(grid)

    def test_unknown_mix_field_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_json({"seeds": [0], "mixes": {"broken": {"warp_speed": 9}}})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_json({"seeds": [0], "configs": {"broken": {"gpus": 1}}})

    def test_missing_seeds_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_json({"mixes": {"default": {}}})

    def test_typoed_fault_key_rejected(self):
        from repro.common.errors import FormatError

        with pytest.raises(FormatError, match="fault event"):
            grid_from_json(
                {
                    "seeds": [0],
                    "faults": {
                        "storm": [
                            {"kind": "worker_crash", "at_s": 100, "magntiude": 4}
                        ]
                    },
                }
            )

    def test_fault_row_missing_time_rejected(self):
        from repro.common.errors import FormatError

        with pytest.raises(FormatError, match="missing"):
            grid_from_json(
                {"seeds": [0], "faults": {"storm": [{"kind": "worker_crash"}]}}
            )
