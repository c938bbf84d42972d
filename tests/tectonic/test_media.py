"""Storage media service-time models and calibration."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.tectonic import MediaModel, hdd_node, ssd_node


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

    def test_empty_read_costs_a_seek(self):
        media = hdd_node()
        assert media.service_time(0) == media.seek_time_s

    @pytest.mark.parametrize("make", [hdd_node, ssd_node], ids=["hdd", "ssd"])
    def test_larger_reads_trade_iops_for_throughput(self, make):
        media = make()
        sizes = [4096, 64 << 10, 1 << 20, 8 << 20]
        iops = [media.iops_at_size(size) for size in sizes]
        throughput = [media.throughput_at_size(size) for size in sizes]
        assert iops == sorted(iops, reverse=True)
        assert throughput == sorted(throughput)
        assert throughput[-1] < media.bandwidth_bytes_per_s

    def test_ssd_outserves_hdd_at_small_reads(self):
        assert ssd_node().iops_at_size(4096) > hdd_node().iops_at_size(4096)

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

    def test_sequential_trace_is_pure_transfer(self):
        media = hdd_node()
        sizes = [8 << 20] * 4
        assert media.trace_time(sizes, seeks=0) == pytest.approx(
            sum(sizes) / media.bandwidth_bytes_per_s
        )

    @given(st.lists(st.floats(min_value=0, max_value=1e8), min_size=1, max_size=50))
    def test_random_trace_is_the_sum_of_its_reads(self, sizes):
        """A trace where every read seeks costs what its reads cost one by one."""
        media = hdd_node()
        assert media.trace_time(sizes, seeks=len(sizes)) == pytest.approx(
            sum(media.service_time(size) for size in sizes)
        )

    def test_seek_count_bounds(self):
        with pytest.raises(ConfigError):
            hdd_node().trace_time([100], seeks=2)
        with pytest.raises(ConfigError):
            hdd_node().trace_time([100], seeks=-1)


class TestCalibration:
    def test_ssd_iops_per_watt_ratio(self):
        """Section 7.2: SSD nodes provide ~326% IOPS/W vs HDD."""
        ssd, hdd = ssd_node(), hdd_node()
        ratio = (ssd.iops_at_size(4096) / ssd.watts) / (hdd.iops_at_size(4096) / hdd.watts)
        assert ratio == pytest.approx(3.26, rel=0.02)

    def test_ssd_capacity_per_watt_ratio(self):
        """Section 7.2: SSD nodes provide ~9% capacity/W vs HDD."""
        ssd, hdd = ssd_node(), hdd_node()
        ratio = (ssd.capacity_bytes / ssd.watts) / (hdd.capacity_bytes / hdd.watts)
        assert ratio == pytest.approx(0.09, rel=0.02)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            MediaModel("bad", seek_time_s=-1, bandwidth_bytes_per_s=1,
                       capacity_bytes=1, watts=1)
        with pytest.raises(ConfigError):
            MediaModel("bad", seek_time_s=0, bandwidth_bytes_per_s=0,
                       capacity_bytes=1, watts=1)

    def test_non_positive_power_rejected(self):
        with pytest.raises(ConfigError):
            MediaModel("bad", seek_time_s=0, bandwidth_bytes_per_s=1,
                       capacity_bytes=1, watts=0)
