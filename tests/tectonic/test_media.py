"""Storage media service-time models and calibration."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.tectonic import MediaModel, effective_iops, hdd_node, ssd_node


class TestServiceTime:
    def test_seek_plus_transfer(self):
        media = MediaModel("m", seek_time_s=0.01, bandwidth_bytes_per_s=1e6,
                           capacity_bytes=1e12, watts=10)
        assert media.service_time(1e6) == pytest.approx(1.01)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            hdd_node().service_time(-1)

    @given(st.floats(min_value=1, max_value=1e9))
    def test_iops_throughput_consistent(self, size):
        media = hdd_node()
        assert media.throughput_at_size(size) == pytest.approx(
            media.iops_at_size(size) * size
        )

    def test_small_reads_seek_bound(self):
        media = hdd_node()
        # At 4 KiB the seek dominates: throughput far below bandwidth.
        assert media.throughput_at_size(4096) < media.bandwidth_bytes_per_s / 50

    def test_large_reads_bandwidth_bound(self):
        media = hdd_node()
        assert media.throughput_at_size(64 << 20) > media.bandwidth_bytes_per_s * 0.9


class TestTraceModel:
    def test_trace_time(self):
        media = MediaModel("m", seek_time_s=0.001, bandwidth_bytes_per_s=1e9,
                           capacity_bytes=1e12, watts=10)
        time = media.trace_time([1e6, 1e6], seeks=2)
        assert time == pytest.approx(0.002 + 0.002)

    def test_trace_throughput_with_overread(self):
        media = MediaModel("m", seek_time_s=0.0, bandwidth_bytes_per_s=1e9,
                           capacity_bytes=1e12, watts=10)
        goodput = media.trace_throughput([1e6], seeks=0, useful_bytes=5e5)
        assert goodput == pytest.approx(5e8)

    def test_seek_count_bounds(self):
        with pytest.raises(ConfigError):
            hdd_node().trace_time([100], seeks=2)
        with pytest.raises(ConfigError):
            hdd_node().trace_time([100], seeks=-1)

    def test_effective_iops_mixed_trace(self):
        media = hdd_node()
        iops = effective_iops(media, [4096] * 100)
        assert iops == pytest.approx(media.iops_at_size(4096), rel=1e-6)

    def test_effective_iops_empty_rejected(self):
        with pytest.raises(ConfigError):
            effective_iops(hdd_node(), [])


class TestCalibration:
    def test_ssd_iops_per_watt_ratio(self):
        """Section 7.2: SSD nodes provide ~326% IOPS/W vs HDD."""
        ratio = ssd_node().iops_per_watt(4096) / hdd_node().iops_per_watt(4096)
        assert ratio == pytest.approx(3.26, rel=0.02)

    def test_ssd_capacity_per_watt_ratio(self):
        """Section 7.2: SSD nodes provide ~9% capacity/W vs HDD."""
        ratio = ssd_node().capacity_per_watt() / hdd_node().capacity_per_watt()
        assert ratio == pytest.approx(0.09, rel=0.02)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            MediaModel("bad", seek_time_s=-1, bandwidth_bytes_per_s=1,
                       capacity_bytes=1, watts=1)
        with pytest.raises(ConfigError):
            MediaModel("bad", seek_time_s=0, bandwidth_bytes_per_s=0,
                       capacity_bytes=1, watts=1)
