"""Projection studies: demand growth and trainer-host headroom."""

import pytest

from repro.analysis import project_demand_growth, trainer_host_headroom
from repro.workloads import ALL_MODELS, C_V1, C_VSOTA, RM1, RM2, V100_TRAINER, ZIONEX_TRAINER


class TestDemandGrowth:
    def test_fleet_scales_linearly_with_demand(self):
        impact = project_demand_growth(RM1, C_V1, growth=3.5)
        assert impact.workers_per_trainer_grown == pytest.approx(
            3.5 * impact.workers_per_trainer_now
        )
        extra = impact.workers_per_trainer_grown - impact.workers_per_trainer_now
        assert extra > 2 * impact.workers_per_trainer_now

    def test_grown_rm1_needs_about_85_workers(self):
        """Table 9's 24 workers/trainer becomes ~85 under 3.5x growth
        — the scale problem motivating DSI innovation (§6.1)."""
        impact = project_demand_growth(RM1, C_V1)
        assert impact.workers_per_trainer_grown == pytest.approx(24.3 * 3.5, rel=0.1)

    def test_better_nodes_shrink_the_fleet(self):
        on_v1 = project_demand_growth(RM2, C_V1)
        on_sota = project_demand_growth(RM2, C_VSOTA)
        assert on_sota.workers_per_trainer_grown < on_v1.workers_per_trainer_grown


class TestHostHeadroom:
    def test_all_models_fit_today_on_both_nodes(self):
        for model in ALL_MODELS:
            for trainer in (V100_TRAINER, ZIONEX_TRAINER):
                assert trainer_host_headroom(model, trainer).feasible

    def test_grown_rm1_overwhelms_the_v100_host(self):
        """Grown demand exceeds the 2-socket node's loading ceiling —
        why ZionEX provisions 4 sockets x 100 Gbps (§7.1)."""
        on_v100 = trainer_host_headroom(RM1, V100_TRAINER, growth=2.5)
        on_zionex = trainer_host_headroom(RM1, ZIONEX_TRAINER, growth=2.5)
        assert not on_v100.feasible
        assert on_zionex.feasible

    def test_full_growth_needs_offload_and_faster_nics(self):
        """Even ZionEX cannot load 3.5x RM1 demand: memory bandwidth
        binds with today's software tax, and after TLS/deserialization
        offload (§7.2's SmartNICs) the four 100 Gbps NICs themselves
        bind.  Feasibility needs both the offload and next-gen NICs."""
        import dataclasses

        from repro.trainer import LoadingTax

        stock = trainer_host_headroom(RM1, ZIONEX_TRAINER, growth=3.5)
        assert not stock.feasible  # memory-bandwidth bound at 42 GB/s

        offload = LoadingTax(cycles_per_byte=1.2, mem_bytes_per_byte=2.0)
        offloaded = trainer_host_headroom(RM1, ZIONEX_TRAINER, growth=3.5,
                                          tax=offload)
        # Offload raises the ceiling to NIC line rate — still short.
        assert offloaded.max_rate_bytes_per_s == pytest.approx(50e9)
        assert not offloaded.feasible

        faster_nics = dataclasses.replace(
            ZIONEX_TRAINER, name="zionex-200g",
            nics_gbps=(200.0, 200.0, 200.0, 200.0),
        )
        upgraded = trainer_host_headroom(RM1, faster_nics, growth=3.5, tax=offload)
        assert upgraded.feasible

    def test_utilization_fraction(self):
        headroom = trainer_host_headroom(RM2, V100_TRAINER)
        assert 0 < headroom.utilization < 1
        grown = trainer_host_headroom(RM2, V100_TRAINER, growth=3.5)
        assert grown.utilization == pytest.approx(3.5 * headroom.utilization)
