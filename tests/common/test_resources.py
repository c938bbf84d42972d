"""Fluid host-resource models."""

import pytest

from repro.common.errors import ConfigError
from repro.common.resources import HostModel, ResourceSpec, ResourceUsage


def make_spec(**overrides):
    defaults = dict(
        cpu_cycles_per_s=1e9,
        mem_bw_bytes_per_s=1e9,
        nic_bytes_per_s=1e8,
        memory_capacity_bytes=1e9,
    )
    defaults.update(overrides)
    return ResourceSpec(**defaults)


# (usage field, report field, capacity under make_spec()) per resource.
RESOURCES = [
    ("cpu_cycles", "cpu", 1e9),
    ("mem_bytes", "mem_bw", 1e9),
    ("nic_rx_bytes", "nic_rx", 1e8),
    ("nic_tx_bytes", "nic_tx", 1e8),
    ("memory_resident_bytes", "memory_capacity", 1e9),
]


class TestResourceSpec:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            make_spec(cpu_cycles_per_s=0)
        with pytest.raises(ConfigError):
            make_spec(nic_bytes_per_s=-1)

    def test_memory_capacity_optional(self):
        spec = make_spec(memory_capacity_bytes=0.0)
        assert spec.memory_capacity_bytes == 0.0

    def test_negative_memory_capacity_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(memory_capacity_bytes=-1.0)


class TestUtilization:
    def test_utilization_fractions(self):
        host = HostModel(make_spec())
        host.usage = ResourceUsage(
            cpu_cycles=5e8, mem_bytes=2.5e8, nic_rx_bytes=5e7, nic_tx_bytes=1e7
        )
        report = host.utilization()
        assert report.cpu == pytest.approx(0.5)
        assert report.mem_bw == pytest.approx(0.25)
        assert report.nic_rx == pytest.approx(0.5)
        assert report.nic_tx == pytest.approx(0.1)

    def test_memory_capacity_utilization(self):
        host = HostModel(make_spec())
        host.usage = ResourceUsage(memory_resident_bytes=5e8)
        assert host.utilization().memory_capacity == pytest.approx(0.5)

    def test_memory_capacity_unset_reads_zero(self):
        host = HostModel(make_spec(memory_capacity_bytes=0.0))
        host.usage = ResourceUsage(memory_resident_bytes=5e8)
        assert host.utilization().memory_capacity == 0.0
        assert host.max_sustainable_scale() == float("inf")

    @pytest.mark.parametrize("usage_field, report_field, capacity", RESOURCES)
    def test_each_resource_is_its_usage_over_its_capacity(
        self, usage_field, report_field, capacity
    ):
        host = HostModel(make_spec())
        host.usage = ResourceUsage(**{usage_field: 0.3 * capacity})
        report = host.utilization()
        for _, other, _ in RESOURCES:
            expected = 0.3 if other == report_field else 0.0
            assert getattr(report, other) == pytest.approx(expected)


class TestSustainableScale:
    def test_headroom_reported(self):
        host = HostModel(make_spec())
        host.usage = ResourceUsage(cpu_cycles=2.5e8)  # 25% CPU
        assert host.max_sustainable_scale() == pytest.approx(4.0)

    def test_mem_bw_saturation_limits(self):
        host = HostModel(make_spec(), mem_bw_saturation=0.7)
        host.usage = ResourceUsage(mem_bytes=3.5e8)  # 35% of peak
        # 70% saturation ceiling / 35% load = 2x headroom, not 1/0.35.
        assert host.max_sustainable_scale() == pytest.approx(2.0)

    def test_idle_host_unbounded(self):
        assert HostModel(make_spec()).max_sustainable_scale() == float("inf")

    def test_oversubscribed_below_one(self):
        host = HostModel(make_spec())
        host.usage = ResourceUsage(cpu_cycles=2e9)
        assert host.max_sustainable_scale() == pytest.approx(0.5)

    @pytest.mark.parametrize("usage_field, report_field, capacity", RESOURCES)
    def test_the_most_utilized_resource_bounds_the_scale(
        self, usage_field, report_field, capacity
    ):
        # Every resource at 10%, the one under test at 40%: the scale is
        # its ceiling over 40% (memory bandwidth saturates at 70% of peak).
        host = HostModel(make_spec(), mem_bw_saturation=0.7)
        host.usage = ResourceUsage(
            **{field: (0.4 if field == usage_field else 0.1) * cap
               for field, _, cap in RESOURCES}
        )
        ceiling = 0.7 if report_field == "mem_bw" else 1.0
        assert host.max_sustainable_scale() == pytest.approx(ceiling / 0.4)
