"""The auto-scaling rule."""

import pytest

from repro.common.errors import DppError
from repro.dpp import AutoscalerConfig, scaling_decision
from repro.experiments.scenarios import DppTimelineScenario

from .oracles import OracleAutoscalingController, OracleWorkerTelemetry


class TestConfig:
    def test_thresholds_validated(self):
        with pytest.raises(DppError):
            AutoscalerConfig(min_buffered_per_worker=5, drain_buffered_per_worker=4)
        with pytest.raises(DppError):
            AutoscalerConfig(low_utilization=0.0)
        with pytest.raises(DppError):
            AutoscalerConfig(min_workers=0)
        with pytest.raises(DppError):
            AutoscalerConfig(scale_up_step=0)


class TestDecisions:
    def test_empty_buffers_scale_up(self):
        config = AutoscalerConfig()
        decision = scaling_decision(config, 4, 0.0, 0.9)
        assert decision.action == "launch"
        assert decision.delta == config.scale_up_step

    def test_healthy_fleet_holds(self):
        decision = scaling_decision(AutoscalerConfig(), 4, 3.0, 0.9)
        assert decision.action == "hold"

    def test_overfull_and_idle_drains(self):
        decision = scaling_decision(AutoscalerConfig(), 4, 10.0, 0.2)
        assert decision.action == "drain"

    def test_overfull_but_busy_holds(self):
        """Full buffers with high utilization is steady state, not waste."""
        decision = scaling_decision(AutoscalerConfig(), 4, 10.0, 0.9)
        assert decision.action == "hold"

    def test_no_workers_launches(self):
        decision = scaling_decision(AutoscalerConfig(), 0, 0.0, 0.0)
        assert decision.action == "launch"
        assert decision.reason == "no live workers"

    def test_min_workers_respected(self):
        decision = scaling_decision(AutoscalerConfig(min_workers=4), 4, 10.0, 0.1)
        assert decision.action == "hold"

    def test_max_workers_caps_scale_up(self):
        decision = scaling_decision(AutoscalerConfig(max_workers=4), 4, 0.0, 0.9)
        assert decision.delta == 0

    def test_drain_limited_to_excess(self):
        config = AutoscalerConfig(min_workers=3, drain_step=5)
        assert scaling_decision(config, 4, 10.0, 0.1).delta == -1

    def test_mixed_fleet_uses_means(self):
        # Two dry workers and two holding 8 average 4 per worker: in band.
        decision = scaling_decision(AutoscalerConfig(), 4, (0 + 0 + 8 + 8) / 4, 0.9)
        assert decision.action == "hold"

    def test_negative_utilization_counts_as_idle(self):
        decision = scaling_decision(AutoscalerConfig(), 4, 10.0, -0.5)
        assert decision.action == "drain"
        assert decision.reason.endswith("underutilized (0%)")


class TestUniformEvaluation:
    """The rule == the per-worker list evaluation it replaced, over n
    identical reports (pinned cases; the differential draws the rest)."""

    def uniform(self, n, buffered, utilization):
        return [
            OracleWorkerTelemetry(
                worker_id=f"w{i}",
                buffered_batches=buffered,
                cpu_utilization=utilization,
                memory_utilization=0.0,
                network_utilization=0.0,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize(
        "n,buffered,utilization",
        [
            (1, 0, 0.9),   # buffers dry: launch
            (4, 0, 0.9),
            (8, 3, 0.6),   # in band: hold
            (6, 10, 0.2),  # full and idle: drain
            (1, 10, 0.2),  # full and idle but at the floor: hold
            (150, 2, 1.0),
        ],
    )
    def test_matches_per_worker_evaluation(self, n, buffered, utilization):
        config = AutoscalerConfig()
        listwise = OracleAutoscalingController(config).evaluate(
            self.uniform(n, buffered, utilization)
        )
        decision = scaling_decision(config, n, float(buffered), utilization)
        assert decision == listwise

    def test_zero_workers_matches_empty_telemetry(self):
        config = AutoscalerConfig()
        listwise = OracleAutoscalingController(config).evaluate([])
        assert scaling_decision(config, 0, 0.0, 0.0) == listwise


class TestAboveTheCap:
    """A pool above ``max_workers`` whose buffers run dry holds: the
    launch branch never drains."""

    def test_low_buffers_above_the_cap_hold(self):
        decision = scaling_decision(AutoscalerConfig(max_workers=8), 10, 0.0, 1.0)
        assert decision.delta == 0
        assert decision.action == "hold"

    def test_timeline_above_the_cap_keeps_its_workers(self):
        result = DppTimelineScenario(
            name="x",
            initial_workers=12,
            max_workers=8,
            worker_batches_per_s=1.0,
            trainer_batches_per_s=20.0,
            duration_s=60.0,
        ).run()
        assert not any("drain" in line for line in result.scaling_decisions)
        assert {sample.live_workers for sample in result.samples} == {12}
