"""Trace-driven fleet job generation."""

import pytest

from repro.cluster.job import JobKind
from repro.common.errors import ConfigError
from repro.fleet import DAY_S, FleetJobSpec, FleetMix, JobGenerator
from repro.workloads.models import RM1, RM2


def spec(**overrides):
    defaults = dict(
        job_id=0,
        model=RM1,
        kind=JobKind.EXPLORATORY,
        arrival_s=0.0,
        trainer_nodes=2,
        target_samples=1e9,
    )
    defaults.update(overrides)
    return FleetJobSpec(**defaults)


class TestFleetJobSpec:
    def test_demand_follows_tables_8_and_9(self):
        job = spec(trainer_nodes=4)
        assert job.demand_samples_per_s == pytest.approx(
            4 * RM1.samples_per_s_per_trainer
        )

    def test_ideal_duration_is_target_over_demand(self):
        job = spec()
        assert job.ideal_duration_s == pytest.approx(
            job.target_samples / job.demand_samples_per_s
        )

    def test_storage_rx_matches_table_9_ratio(self):
        job = spec(model=RM2)
        assert job.storage_rx_bytes_per_sample == pytest.approx(
            RM2.dpp.storage_rx_gbs * 1e9 / (RM2.dpp.kqps * 1_000)
        )

    @pytest.mark.parametrize(
        "overrides",
        [dict(trainer_nodes=0), dict(target_samples=0.0), dict(arrival_s=-1.0)],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            spec(**overrides)


class TestJobGenerator:
    def test_deterministic_for_fixed_seed(self):
        mix = FleetMix(exploratory_per_day=100.0)
        first = JobGenerator(mix, seed=7).generate(DAY_S)
        second = JobGenerator(mix, seed=7).generate(DAY_S)
        assert [(j.arrival_s, j.model.name) for j in first] == [
            (j.arrival_s, j.model.name) for j in second
        ]

    def test_arrivals_sorted_and_in_range(self):
        jobs = JobGenerator(FleetMix(exploratory_per_day=200.0), seed=1).generate(
            DAY_S / 2
        )
        arrivals = [j.arrival_s for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < DAY_S / 2 for a in arrivals)
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_combo_waves_produce_combo_jobs(self):
        mix = FleetMix(
            exploratory_per_day=0.0,
            combo_wave_starts_s=(0.0,),
            combo_jobs_per_wave=9,
            combo_window_s=3600.0,
        )
        jobs = JobGenerator(mix, seed=3).generate(2 * 3600.0)
        assert len(jobs) == 9
        assert all(j.kind is JobKind.COMBO for j in jobs)
        assert all(j.arrival_s < 3600.0 for j in jobs)

    def test_diurnal_amplitude_shapes_rate(self):
        generator = JobGenerator(FleetMix(diurnal_amplitude=0.6, peak_hour=14.0))
        peak = generator._diurnal_factor(14.0 / 24.0 * DAY_S)
        trough = generator._diurnal_factor(2.0 / 24.0 * DAY_S)
        assert peak == pytest.approx(1.6)
        assert trough == pytest.approx(0.4)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ConfigError):
            FleetMix(models=(RM1,), model_weights=(0.5, 0.5))


class TestBurstCalibration:
    def test_burst_size_mean_below_one_rejected(self):
        with pytest.raises(ConfigError):
            FleetMix(burst_size_mean=0.5)

    def test_burst_companions_match_configured_mean(self):
        import numpy as np

        rng = np.random.default_rng(0)
        draws = rng.geometric(1.0 / 3.0, size=200_000)
        assert abs(draws.mean() - 3.0) < 0.05  # the distribution we rely on
