"""The three scenario kinds: contract and determinism."""

import json
import pickle

import pytest

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import ConfigError, FormatError
from repro.experiments import (
    ChaosSessionScenario,
    DppTimelineScenario,
    SCENARIOS,
    FleetRegionScenario,
    build_scenario,
    kind_of,
)
from repro.experiments.scenarios import (
    config_from_spec,
    config_to_spec,
    mix_from_overrides,
    mix_to_overrides,
)

ONE_OF_EACH = (
    "fleet/storm",
    "chaos/worst-case",
    "dpp/worker-churn",
    "serving/bursty",
)


class TestProtocol:
    @pytest.mark.parametrize("name", ONE_OF_EACH)
    def test_picklable(self, name):
        scenario = build_scenario(name, seed=4)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario

    @pytest.mark.parametrize("name", ONE_OF_EACH)
    def test_seed_exposed(self, name):
        assert build_scenario(name, seed=9).seed == 9

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_document_is_the_kind_envelope_around_params(self, name):
        # The envelope's tag is the name's first segment, and the body
        # is params() itself: the journal hashes these bytes.
        scenario = build_scenario(name, seed=0)
        document = json.loads(scenario.to_json())
        assert document.pop("scenario") == kind_of(name) == scenario.kind
        assert document.pop("version") == 1
        assert document["name"] == scenario.name
        assert document == json.loads(json.dumps(scenario.params()))


class TestFleetKind:
    def test_same_seed_same_report(self):
        a = build_scenario("fleet/busy", seed=5).run()
        b = build_scenario("fleet/busy", seed=5).run()
        assert a.to_json() == b.to_json()

    def test_different_seed_different_trace(self):
        a = build_scenario("fleet/busy", seed=5).run()
        b = build_scenario("fleet/busy", seed=6).run()
        assert [o.spec.arrival_s for o in a.outcomes] != [
            o.spec.arrival_s for o in b.outcomes
        ]

    def test_session_scoped_faults_rejected(self):
        with pytest.raises(ConfigError, match="fleet scenarios support"):
            FleetRegionScenario(
                name="bad",
                trace_seed=0,
                mix=mix_from_overrides({}),
                config=config_from_spec({}),
                duration_s=600.0,
                faults=(FaultEvent(0, FaultKind.MASTER_FAILOVER),),
            )

    def test_zero_arrival_mix_runs_empty(self):
        scenario = FleetRegionScenario(
            name="quiet/seed0",
            trace_seed=0,
            mix=mix_from_overrides({"exploratory_per_day": 0.001}),
            config=config_from_spec({}),
            duration_s=600.0,
        )
        report = scenario.run()
        assert report.aggregates()["jobs_submitted"] == 0

    def test_fault_seed_stable_and_name_dependent(self):
        a = build_scenario("fleet/storm", seed=1)
        assert a.fault_seed == build_scenario("fleet/storm", seed=1).fault_seed
        assert a.fault_seed != build_scenario("fleet/storm", seed=2).fault_seed

    def test_cell_strips_seed_axis(self):
        assert build_scenario("fleet/busy", seed=3).cell == "fleet/busy"


class TestMixConfigShorthand:
    def test_mix_overrides_round_trip(self):
        overrides = {"exploratory_per_day": 96.0, "burst_probability": 0.4}
        mix = mix_from_overrides(overrides)
        assert mix_to_overrides(mix) == overrides
        assert mix_to_overrides(mix_from_overrides({})) == {}

    def test_config_spec_round_trip(self):
        spec = config_to_spec(config_from_spec({"n_hdd_nodes": 12}))
        assert spec["n_hdd_nodes"] == 12
        assert config_from_spec(spec) == config_from_spec({"n_hdd_nodes": 12})

    def test_inexpressible_config_rejected(self):
        from dataclasses import replace

        from repro.fleet.allocator import PoolConfig

        config = replace(
            config_from_spec({}), pool=PoolConfig(max_workers=500, spinup_s=7.0)
        )
        with pytest.raises(FormatError, match="shorthand"):
            config_to_spec(config)

    def test_inexpressible_mix_rejected(self):
        from dataclasses import replace

        from repro.workloads.models import RM1

        mix = replace(mix_from_overrides({}), models=(RM1,), model_weights=(1.0,))
        with pytest.raises(FormatError, match="model catalog"):
            mix_to_overrides(mix)


class TestChaosKind:
    def test_same_seed_same_report(self):
        a = build_scenario("chaos/seeded", seed=3).run()
        b = build_scenario("chaos/seeded", seed=3).run()
        assert a.to_json() == b.to_json()

    def test_invariants_hold_across_seeds(self):
        for seed in range(3):
            report = build_scenario("chaos/backlogged-crash", seed=seed).run()
            assert report.ok, report.describe()
            assert report.replayed_batches > 0
            assert report.delivered_batches == (
                report.expected_batches + report.replayed_batches
            )

    def test_seeded_schedule_varies_with_seed(self):
        a = build_scenario("chaos/seeded", seed=0)
        b = build_scenario("chaos/seeded", seed=1)
        assert a.schedule().events != b.schedule().events

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosSessionScenario(name="bad", n_workers=0)
        with pytest.raises(ConfigError):
            ChaosSessionScenario(name="bad", seeded_faults=-1)


class TestDppKind:
    def test_churn_recovers(self):
        report = build_scenario("dpp/worker-churn", seed=0).run()
        assert report.stall_fraction < 0.10
        assert report.final_workers >= 6

    def test_steady_state_never_stalls(self):
        report = build_scenario("dpp/steady-state", seed=0).run()
        assert report.stall_fraction == 0.0

    def test_cold_start_scales_up(self):
        report = build_scenario("dpp/cold-start", seed=0).run()
        assert report.peak_workers > 1
        assert report.scaling_decisions

    def test_runs_are_deterministic(self):
        a = build_scenario("dpp/worker-churn", seed=0).run()
        b = build_scenario("dpp/worker-churn", seed=0).run()
        assert a.to_json() == b.to_json()

    def test_validation(self):
        with pytest.raises(ConfigError):
            DppTimelineScenario(name="bad", duration_s=0.0)
        with pytest.raises(ConfigError):
            DppTimelineScenario(name="bad", worker_losses=((10.0, 0),))
