"""Storage provisioning: the capacity-vs-IOPS balance (Section 7.1/7.2)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GB, PB, TB
from repro.tectonic import (
    ProvisioningDemand,
    hdd_node,
    provision,
    provision_tiered,
    ssd_node,
)


def paper_like_demand(**overrides):
    """RM1-shaped demand: PB dataset, heavy small-read IOPS."""
    defaults = dict(
        dataset_bytes=12 * PB,
        # Aggregate compressed read rate of ~75 concurrent RM1 trainer
        # nodes' worth of DPP extraction (Tables 8/9).
        read_bytes_per_s=60 * GB,
        io_sizes=[23_200.0],  # Table 6 mean I/O size
        replication=3,
    )
    defaults.update(overrides)
    return ProvisioningDemand(**defaults)


class TestDemand:
    def test_mean_io_and_iops(self):
        demand = ProvisioningDemand(1e15, 1e9, io_sizes=[1000, 3000])
        assert demand.mean_io_bytes == 2000
        assert demand.read_iops == pytest.approx(5e5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProvisioningDemand(0, 1, io_sizes=[1])
        with pytest.raises(ConfigError):
            ProvisioningDemand(1, 1, io_sizes=[])
        with pytest.raises(ConfigError):
            ProvisioningDemand(1, 1, io_sizes=[1], replication=0)
        with pytest.raises(ConfigError):
            ProvisioningDemand(1, -1, io_sizes=[1])

    @pytest.mark.parametrize("sizes", [[0.0], [1000.0, 0.0], [-4096.0], [3000.0, -1000.0]])
    def test_non_positive_io_sizes_refused(self, sizes):
        """A zero size would divide by zero in read_iops; a negative one
        would skew the mean I/O size, and so the IOPS, without a word."""
        with pytest.raises(ConfigError):
            ProvisioningDemand(1e15, 1e9, io_sizes=sizes)

    def test_no_reads_is_sized_by_capacity_alone(self):
        demand = ProvisioningDemand(1e15, 0.0, io_sizes=[23_200.0])
        assert demand.read_iops == 0
        plan = provision(demand, hdd_node())
        assert plan.nodes_for_iops == 0
        assert plan.nodes_required == plan.nodes_for_capacity


class TestProvisioning:
    def test_iops_dominates_for_small_reads(self):
        """The paper's >8x throughput-to-storage gap on HDDs."""
        plan = provision(paper_like_demand(), hdd_node())
        assert plan.nodes_for_iops > plan.nodes_for_capacity
        assert plan.throughput_to_storage_gap > 8.0

    def test_capacity_dominates_for_large_reads(self):
        demand = paper_like_demand(io_sizes=[64 << 20], read_bytes_per_s=1 * GB)
        plan = provision(demand, hdd_node())
        assert plan.nodes_for_capacity >= plan.nodes_for_iops

    def test_nodes_required_is_max(self):
        plan = provision(paper_like_demand(), hdd_node())
        assert plan.nodes_required == max(plan.nodes_for_capacity, plan.nodes_for_iops)

    def test_replication_scales_capacity_nodes(self):
        single = provision(paper_like_demand(replication=1), hdd_node())
        triple = provision(paper_like_demand(replication=3), hdd_node())
        assert triple.nodes_for_capacity == pytest.approx(
            3 * single.nodes_for_capacity, abs=1
        )

    def test_power_and_capacity_totals(self):
        plan = provision(paper_like_demand(), hdd_node())
        assert plan.total_watts == plan.nodes_required * hdd_node().watts
        assert plan.nodes_required * hdd_node().capacity_bytes >= 3 * 12 * PB

    def test_ssd_closes_iops_gap(self):
        hdd_plan = provision(paper_like_demand(), hdd_node())
        ssd_plan = provision(paper_like_demand(), ssd_node())
        assert (
            ssd_plan.throughput_to_storage_gap < hdd_plan.throughput_to_storage_gap
        )


class TestTiering:
    def test_tiered_plan_saves_power(self):
        """Hot bytes on SSD can beat an all-HDD fleet on watts."""
        demand = paper_like_demand()
        flat = provision(demand, hdd_node())
        # Figure 7 RM1: 39% of bytes absorb 80% of traffic.
        tiered = provision_tiered(demand, hdd_node(), ssd_node(),
                                  hot_fraction=0.39, traffic_absorbed=0.80)
        assert tiered.total_watts < flat.total_watts

    def test_tiered_validation(self):
        demand = paper_like_demand()
        with pytest.raises(ConfigError):
            provision_tiered(demand, hdd_node(), ssd_node(), 0.0, 0.8)
        with pytest.raises(ConfigError):
            provision_tiered(demand, hdd_node(), ssd_node(), 0.5, 0.3)

    def test_tier_demands_partition_traffic(self):
        demand = paper_like_demand()
        tiered = provision_tiered(demand, hdd_node(), ssd_node(), 0.4, 0.8)
        assert tiered.ssd_plan.nodes_required > 0
        assert tiered.hdd_plan.nodes_required > 0
        assert tiered.hot_fraction == 0.4

    def test_cache_absorbing_all_traffic(self):
        """traffic_absorbed=1.0 passes the range check, so it must build:
        the SSD tier serves every read, the HDD tier only holds bytes."""
        demand = paper_like_demand()
        tiered = provision_tiered(demand, hdd_node(), ssd_node(), 0.4, 1.0)
        hdd = tiered.hdd_plan
        assert hdd.nodes_for_iops == 0
        assert hdd.nodes_required == hdd.nodes_for_capacity
        assert hdd.nodes_required * hdd.media.capacity_bytes >= 0.6 * demand.dataset_bytes * 3
        assert tiered.ssd_plan.nodes_required == provision(
            paper_like_demand(dataset_bytes=0.4 * demand.dataset_bytes), ssd_node()
        ).nodes_required
