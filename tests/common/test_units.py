"""Unit-conversion helpers."""

import pytest

from repro.common import units


class TestByteUnits:
    def test_decimal_prefixes(self):
        assert units.gigabytes(1) == 1_000_000_000

    def test_decimal_ladder(self):
        assert units.GB == 1_000 * units.MB
        assert units.TB == 1_000 * units.GB
        assert units.PB == 1_000 * units.TB

    def test_binary_and_decimal_megabytes_differ(self):
        assert units.mebibytes(1) == units.MIB
        assert units.MIB > units.MB

    def test_binary_prefixes(self):
        assert units.mebibytes(1) == 1 << 20
        assert units.mebibytes(1.25) == 1_310_720

    def test_round_trips(self):
        assert units.to_pb(13.45 * units.PB) == pytest.approx(13.45)


class TestBandwidthUnits:
    def test_gbps_is_bits(self):
        # 12.5 Gbps NIC = 1.5625 GB/s per direction.
        assert units.gbps(12.5) == pytest.approx(1.5625e9)

    @pytest.mark.parametrize(
        "nic_gbps, bytes_per_s",
        [(12.5, 1.5625e9), (25.0, 3.125e9), (100.0, 12.5e9)],
    )
    def test_table10_nics_in_bytes(self, nic_gbps, bytes_per_s):
        assert units.gbps(nic_gbps) == pytest.approx(bytes_per_s)
