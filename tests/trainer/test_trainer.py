"""GPU demand, loading tax, stall studies, and the executable node."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GB
from repro.trainer import (
    GpuDemand,
    V100_DEMAND_FACTOR,
    dpp_supplied_stall,
    loading_utilization,
    max_loading_rate,
    on_host_preprocessing_study,
)
from repro.workloads import ALL_MODELS, RM1, RM2, RM3, V100_TRAINER, ZIONEX_TRAINER


class TestGpuDemand:
    def test_table8_throughputs(self):
        assert RM1.trainer_gbs == 16.50
        assert RM2.trainer_gbs == 4.69
        assert RM3.trainer_gbs == 12.00

    def test_throughput_varies_over_6x(self):
        """Table 8: per-node demand varies by over 6x wait no — the
        paper reports >3.5x between RM1 and RM2; assert the spread."""
        rates = [m.trainer_gbs for m in ALL_MODELS]
        assert max(rates) / min(rates) > 3.0

    def test_stall_fraction(self):
        demand = GpuDemand(RM1)
        assert demand.stall_fraction(demand.bytes_per_s) == 0.0
        assert demand.stall_fraction(demand.bytes_per_s / 2) == pytest.approx(0.5)
        assert demand.stall_fraction(0.0) == 1.0

    def test_projection_growth(self):
        demand = GpuDemand(RM1)
        assert demand.projected().bytes_per_s == pytest.approx(
            3.5 * demand.bytes_per_s
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            GpuDemand(RM1, generation_factor=0)
        with pytest.raises(ConfigError):
            GpuDemand(RM1).stall_fraction(-1)


class TestLoadingTax:
    def test_figure8_anchor_points(self):
        """At RM1's 16.5 GB/s on the V100 node: ~40% CPU, ~55% mem BW,
        approaching NIC saturation (Section 6.2)."""
        report = loading_utilization(V100_TRAINER, RM1.trainer_bytes_per_s)
        assert report.cpu == pytest.approx(0.40, abs=0.03)
        assert report.mem_bw == pytest.approx(0.55, abs=0.03)
        assert report.nic_rx > 0.6

    def test_utilization_linear_in_rate(self):
        low = loading_utilization(V100_TRAINER, 2 * GB)
        high = loading_utilization(V100_TRAINER, 8 * GB)
        assert high.cpu == pytest.approx(4 * low.cpu, rel=1e-6)
        assert high.mem_bw == pytest.approx(4 * low.mem_bw, rel=1e-6)

    def test_max_loading_rate_below_mem_saturation(self):
        """Memory bandwidth's 70% ceiling binds before CPU or NIC."""
        rate = max_loading_rate(V100_TRAINER)
        report = loading_utilization(V100_TRAINER, rate)
        assert report.mem_bw == pytest.approx(0.7, rel=1e-3)
        assert report.cpu < 1.0

    def test_all_models_loadable_on_zionex(self):
        """§7.1: next-gen nodes provision enough host resources."""
        for model in ALL_MODELS:
            assert max_loading_rate(ZIONEX_TRAINER) > model.trainer_bytes_per_s

    def test_utilization_monotone_in_rate(self):
        reports = [loading_utilization(V100_TRAINER, i * GB) for i in range(6)]
        for field in ("cpu", "mem_bw", "nic_rx"):
            values = [getattr(report, field) for report in reports]
            assert values == sorted(values)

    def test_idle_loader_uses_nothing(self):
        report = loading_utilization(V100_TRAINER, 0.0)
        assert (report.cpu, report.mem_bw, report.nic_rx) == (0.0, 0.0, 0.0)

    def test_loading_receives_only(self):
        """Ingest lands on the NIC's receive side at the loading rate."""
        rate = 4 * GB
        report = loading_utilization(V100_TRAINER, rate)
        assert report.nic_tx == 0.0
        assert report.nic_rx == pytest.approx(
            rate / V100_TRAINER.resource_spec().nic_bytes_per_s
        )

    @pytest.mark.parametrize(
        "node", [V100_TRAINER, ZIONEX_TRAINER], ids=lambda node: node.name
    )
    def test_max_loading_rate_saturates_one_resource(self, node):
        report = loading_utilization(node, max_loading_rate(node))
        headroom = max(report.cpu, report.mem_bw / 0.7, report.nic_rx)
        assert headroom == pytest.approx(1.0, rel=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            loading_utilization(V100_TRAINER, -1)


class TestTable7:
    def test_on_host_stalls_match_paper(self):
        """Table 7: 56% GPU stall, 92% CPU, ~54% memory bandwidth."""
        report = on_host_preprocessing_study(
            RM1, V100_TRAINER, GpuDemand(RM1, V100_DEMAND_FACTOR)
        )
        assert report.gpu_stall_fraction == pytest.approx(0.56, abs=0.03)
        assert report.cpu_utilization == pytest.approx(0.92, abs=0.02)
        assert report.mem_bw_utilization == pytest.approx(0.54, abs=0.05)

    def test_supply_bounded_by_demand(self):
        report = on_host_preprocessing_study(
            RM3, V100_TRAINER, GpuDemand(RM3, 0.01)
        )
        assert report.gpu_stall_fraction == 0.0
        assert report.supplied_samples_per_s == report.demanded_samples_per_s

    def test_dpp_right_sizing_eliminates_stalls(self):
        """Provisioning Table 9's worker count zeroes the stall."""
        from repro.dpp.analytical import worker_throughput
        from repro.workloads import C_V1

        for model in ALL_MODELS:
            qps = worker_throughput(model, C_V1).qps
            stall = dpp_supplied_stall(
                model, GpuDemand(model), model.dpp.workers_per_trainer + 1, qps
            )
            assert stall == pytest.approx(0.0, abs=0.05)

    def test_undersized_dpp_fleet_stalls(self):
        from repro.dpp.analytical import worker_throughput
        from repro.workloads import C_V1

        qps = worker_throughput(RM1, C_V1).qps
        stall = dpp_supplied_stall(RM1, GpuDemand(RM1), 5, qps)
        assert stall > 0.5
