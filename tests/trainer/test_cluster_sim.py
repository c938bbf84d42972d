"""Synchronous data-parallel cluster simulation."""

import pytest

from repro.common.errors import ConfigError
from repro.trainer import (
    ClusterConfig,
    simulate_cluster,
    supply_for_efficiency,
)


def make_config(**overrides):
    defaults = dict(
        n_trainers=16,
        compute_time_s=0.05,
        sync_time_s=0.01,
        batches_per_s_supplied=16 / 0.06,  # exactly nominal demand
        supply_imbalance=0.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_config(n_trainers=0)
        with pytest.raises(ConfigError):
            make_config(compute_time_s=0)
        with pytest.raises(ConfigError):
            make_config(batches_per_s_supplied=0)
        with pytest.raises(ConfigError):
            make_config(supply_imbalance=1.0)


class TestSynchronousDynamics:
    def test_abundant_supply_approaches_ideal(self):
        config = make_config(batches_per_s_supplied=16 / 0.06 * 20)
        outcome = simulate_cluster(config, seed=1)
        assert outcome.efficiency > 0.9
        assert outcome.stall_fraction < 0.1

    def test_nominal_supply_stalls_under_synchrony(self):
        """Supply == demand is NOT enough for a synchronous job: the
        max over per-trainer exponential waits dominates."""
        outcome = simulate_cluster(make_config(), seed=1)
        assert outcome.stall_fraction > 0.3

    def test_starved_supply_gates_throughput(self):
        config = make_config(batches_per_s_supplied=16 / 0.06 / 4)
        outcome = simulate_cluster(config, seed=1)
        assert outcome.efficiency < 0.35

    def test_more_trainers_worse_straggling(self):
        """At the same per-trainer supply ratio, wider jobs wait longer
        on their slowest member — the max of more exponentials."""
        narrow = simulate_cluster(
            make_config(n_trainers=4, batches_per_s_supplied=4 / 0.06 * 2), seed=2
        )
        wide = simulate_cluster(
            make_config(n_trainers=64, batches_per_s_supplied=64 / 0.06 * 2), seed=2
        )
        assert wide.stall_fraction > narrow.stall_fraction

    def test_imbalance_hurts(self):
        even = simulate_cluster(
            make_config(batches_per_s_supplied=16 / 0.06 * 3), seed=3
        )
        skewed = simulate_cluster(
            make_config(batches_per_s_supplied=16 / 0.06 * 3,
                        supply_imbalance=0.5),
            seed=3,
        )
        assert skewed.efficiency < even.efficiency

    def test_sync_time_lowers_ideal(self):
        fast_sync = simulate_cluster(
            make_config(sync_time_s=0.0,
                        batches_per_s_supplied=16 / 0.05 * 20), seed=4
        )
        slow_sync = simulate_cluster(
            make_config(sync_time_s=0.05,
                        batches_per_s_supplied=16 / 0.1 * 20), seed=4
        )
        assert fast_sync.ideal_iterations_per_s > slow_sync.ideal_iterations_per_s


class TestSupplySizing:
    def test_headroom_needed_above_nominal(self):
        """Reaching 95% efficiency needs real supply headroom — the
        justification for buffer-targeting autoscaling."""
        factor = supply_for_efficiency(make_config(), target_efficiency=0.95, seed=5)
        assert factor > 1.2

    def test_higher_target_needs_more_supply(self):
        relaxed = supply_for_efficiency(make_config(), 0.80, seed=6)
        strict = supply_for_efficiency(make_config(), 0.97, seed=6)
        assert strict > relaxed

    def test_invalid_target(self):
        with pytest.raises(ConfigError):
            supply_for_efficiency(make_config(), 1.5)


class TestSharedClock:
    def test_shared_clock_interleaves_without_skewing_results(self):
        from repro.common.simclock import SimClock

        from .oracles import simulate_cluster_on_clock

        config = make_config(batches_per_s_supplied=16 / 0.06 * 4)
        solo = simulate_cluster(config, n_iterations=200, seed=3)

        clock = SimClock()
        foreign = []
        clock.every(1.0, lambda: foreign.append(clock.now), until=1e6)
        clock.schedule(5e5, lambda: None)  # far beyond the job's end
        shared = simulate_cluster_on_clock(config, n_iterations=200, seed=3, clock=clock)

        # Identical physics: foreign events interleave but do not count
        # against this job's makespan.
        assert shared.iterations_per_s == pytest.approx(solo.iterations_per_s)
        assert shared.stall_fraction == pytest.approx(solo.stall_fraction)
        # Foreign events up to completion fired; later ones survive for
        # the external driver.
        assert foreign  # some interleaved
        assert clock.pending > 0  # heap not drained

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("imbalance", [0.0, 0.3])
    def test_the_loop_matches_the_event_driven_body(self, seed, imbalance):
        from repro.common.simclock import SimClock

        from .oracles import simulate_cluster_on_clock

        config = make_config(supply_imbalance=imbalance)
        assert simulate_cluster(config, n_iterations=50, seed=seed) == (
            simulate_cluster_on_clock(config, n_iterations=50, seed=seed, clock=SimClock())
        )

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            simulate_cluster(make_config(), n_iterations=0)
