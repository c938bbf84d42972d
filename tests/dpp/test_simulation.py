"""The timed closed-loop autoscaling simulation."""

import pytest

from repro.common.errors import DppError
from repro.dpp import AutoscalerConfig, SimulationConfig, TimedDppSimulation


def make_config(**overrides):
    defaults = dict(
        worker_batches_per_s=10.0,
        trainer_batches_per_s=50.0,  # needs 5 workers
        initial_workers=1,
        worker_spinup_s=20.0,
        controller_period_s=10.0,
        autoscaler=AutoscalerConfig(scale_up_step=2, max_workers=32),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DppError):
            make_config(worker_batches_per_s=0)
        with pytest.raises(DppError):
            make_config(initial_workers=0)
        with pytest.raises(DppError):
            make_config(tick_s=0)


class TestClosedLoop:
    def test_undersized_fleet_scales_until_stall_free(self):
        result = TimedDppSimulation(make_config()).run(duration_s=600.0)
        # Early on the single worker starves trainers...
        assert result.samples[0].stalled
        # ...but the controller converges: the tail is stall-free.
        assert result.stall_fraction_after(400.0) == 0.0
        assert result.final_workers >= 5
        assert result.scaling_decisions  # launches were logged

    def test_right_sized_fleet_never_stalls(self):
        config = make_config(initial_workers=6)
        result = TimedDppSimulation(config).run(duration_s=300.0)
        assert result.stall_fraction == 0.0

    def test_spinup_delays_relief(self):
        """Scale-ups take worker_spinup_s to help; slower spin-up means
        a longer stalled period."""
        fast = TimedDppSimulation(make_config(worker_spinup_s=5.0)).run(400.0)
        slow = TimedDppSimulation(make_config(worker_spinup_s=60.0)).run(400.0)
        assert fast.stall_fraction < slow.stall_fraction

    def test_overprovisioned_fleet_drains(self):
        config = make_config(
            initial_workers=20,
            autoscaler=AutoscalerConfig(
                scale_up_step=2, drain_step=2,
                drain_buffered_per_worker=5.0, low_utilization=0.6,
            ),
            buffer_capacity_batches=400,
        )
        result = TimedDppSimulation(config).run(duration_s=600.0)
        assert result.final_workers < 20
        assert result.stall_fraction == 0.0  # draining never starves
        assert any("drain" in d for d in result.scaling_decisions)

    def test_drain_never_below_demand(self):
        """The controller's drain threshold keeps supply ≥ demand."""
        config = make_config(initial_workers=12, buffer_capacity_batches=200)
        result = TimedDppSimulation(config).run(duration_s=800.0)
        assert result.final_workers >= 5
        assert result.stall_fraction_after(100.0) == 0.0

    def test_max_workers_cap_respected(self):
        config = make_config(
            trainer_batches_per_s=1_000.0,  # needs 100 workers
            autoscaler=AutoscalerConfig(scale_up_step=8, max_workers=10),
        )
        result = TimedDppSimulation(config).run(duration_s=400.0)
        assert result.peak_workers <= 10
        # Capped fleet can never satisfy demand: permanent stalls.
        assert result.stall_fraction_after(300.0) > 0.9


def first_stall_free_window(result, window_s: float) -> float | None:
    """Earliest time after which a full window passes with no stall."""
    window = []
    for sample in result.samples:
        window.append(sample)
        window = [s for s in window if s.time_s > sample.time_s - window_s]
        if (
            window
            and window[0].time_s <= sample.time_s - window_s + 1e-9 + 1
            and not any(s.stalled for s in window)
        ):
            return sample.time_s
    return None


class TestResultStatistics:
    def test_samples_cover_duration(self):
        result = TimedDppSimulation(make_config()).run(duration_s=100.0)
        assert len(result.samples) == 100
        assert result.samples[-1].time_s == pytest.approx(100.0)

    def test_stall_free_window_detection(self):
        result = TimedDppSimulation(make_config(initial_workers=6)).run(120.0)
        window_time = first_stall_free_window(result, 60.0)
        assert window_time is not None
        assert window_time <= 120.0

    def test_empty_tail_rejected(self):
        result = TimedDppSimulation(make_config()).run(duration_s=50.0)
        with pytest.raises(DppError):
            result.stall_fraction_after(1_000.0)


class TestWorkerChurn:
    def test_controller_recovers_from_injected_loss(self):
        """Autoscaler churn (chaos plane): after losing most of the
        fleet mid-run, the controller relaunches and the loop returns
        to a stall-free steady state."""
        simulation = TimedDppSimulation(make_config(initial_workers=6))
        simulation.clock.schedule_at(400.0, lambda: simulation.inject_worker_loss(4))
        result = simulation.run(1200.0)
        losses = [s for s in result.samples if s.time_s >= 400.0]
        assert min(s.live_workers for s in losses) <= 2
        # Recovered: the final stretch is stall-free at full fleet.
        assert result.stall_fraction_after(1000.0) == 0.0
        assert result.final_workers >= 5

    def test_loss_never_kills_last_worker(self):
        simulation = TimedDppSimulation(make_config(initial_workers=3))
        simulation.inject_worker_loss(99)
        result = simulation.run(30.0)
        assert all(s.live_workers >= 1 for s in result.samples)

    def test_negative_loss_rejected(self):
        simulation = TimedDppSimulation(make_config())
        with pytest.raises(DppError):
            simulation.inject_worker_loss(-1)
