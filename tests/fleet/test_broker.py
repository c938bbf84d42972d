"""Shared-storage arbitration: fairness and caching."""

import pytest

from repro.common.errors import ConfigError, StorageError
from repro.fleet import StorageBroker, StorageFabric, max_min_share

from .oracles import apportion


class TestMaxMinShare:
    def test_unconstrained_demands_fully_granted(self):
        assert max_min_share([10.0, 20.0], 100.0) == [10.0, 20.0]

    def test_contended_capacity_split_evenly(self):
        assert max_min_share([60.0, 60.0], 100.0) == [50.0, 50.0]

    def test_small_demand_satisfied_before_large(self):
        grants = max_min_share([10.0, 200.0, 200.0], 100.0)
        assert grants[0] == pytest.approx(10.0)
        assert grants[1] == pytest.approx(45.0)
        assert grants[2] == pytest.approx(45.0)

    def test_never_exceeds_capacity_or_demand(self):
        demands = [7.0, 33.0, 150.0, 2.0]
        grants = max_min_share(demands, 60.0)
        assert sum(grants) <= 60.0 + 1e-9
        assert all(g <= d + 1e-9 for g, d in zip(grants, demands))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigError):
            max_min_share([-1.0], 10.0)
        with pytest.raises(ConfigError):
            max_min_share([1.0], -10.0)


@pytest.fixture
def fabric():
    return StorageFabric(n_hdd_nodes=10, n_ssd_cache_nodes=2)


class TestStorageFabric:
    def test_bandwidths_scale_with_nodes(self, fabric):
        doubled = StorageFabric(n_hdd_nodes=20, n_ssd_cache_nodes=4)
        assert doubled.hdd_bandwidth == pytest.approx(2 * fabric.hdd_bandwidth)
        assert doubled.cache_capacity_bytes == pytest.approx(
            2 * fabric.cache_capacity_bytes
        )


class TestCacheApportionment:
    def test_small_dataset_fully_resident(self, fabric):
        broker = StorageBroker(fabric)
        broker.register(1, dataset_bytes=fabric.cache_capacity_bytes / 10, popularity_bytes_for_80pct=0.4)
        broker.register(2, dataset_bytes=fabric.cache_capacity_bytes * 10, popularity_bytes_for_80pct=0.4)
        assert broker.cache_absorbed_fraction(1) == pytest.approx(1.0)
        assert 0.0 < broker.cache_absorbed_fraction(2) < 1.0

    def test_figure7_anchor_point(self, fabric):
        # A cache holding exactly the pop-80 byte fraction absorbs 80%.
        broker = StorageBroker(fabric)
        broker.register(
            1,
            dataset_bytes=fabric.cache_capacity_bytes / 0.39,
            popularity_bytes_for_80pct=0.39,
        )
        assert broker.cache_absorbed_fraction(1) == pytest.approx(0.8, rel=1e-6)

    def test_unregister_returns_cache(self, fabric):
        broker = StorageBroker(fabric)
        big = fabric.cache_capacity_bytes * 4
        broker.register(1, dataset_bytes=big, popularity_bytes_for_80pct=0.4)
        broker.register(2, dataset_bytes=big, popularity_bytes_for_80pct=0.4)
        shared = broker.cache_absorbed_fraction(1)
        broker.unregister(2)
        assert broker.cache_absorbed_fraction(1) > shared

    def test_double_register_rejected(self, fabric):
        broker = StorageBroker(fabric)
        broker.register(1, dataset_bytes=1e12, popularity_bytes_for_80pct=0.4)
        with pytest.raises(StorageError):
            broker.register(1, dataset_bytes=1e12, popularity_bytes_for_80pct=0.4)


class TestWaterFill:
    def test_each_tier_is_shared_over_its_derated_bandwidth(self, fabric):
        broker = StorageBroker(fabric)
        broker.set_bandwidth_derate(0.5)
        ssd = [fabric.ssd_bandwidth, 1.0]
        hdd = [fabric.hdd_bandwidth, fabric.hdd_bandwidth, 2.0]
        ssd_grants, hdd_grants = broker.water_fill(ssd, hdd)
        assert ssd_grants == max_min_share(ssd, fabric.ssd_bandwidth * 0.5)
        assert hdd_grants == max_min_share(hdd, fabric.hdd_bandwidth * 0.5)
        assert sum(hdd_grants) == pytest.approx(fabric.hdd_bandwidth * 0.5)

    def test_grants_follow_the_columns_not_their_order(self, fabric):
        broker = StorageBroker(fabric)
        hdd = [fabric.hdd_bandwidth, 3.0, fabric.hdd_bandwidth / 4]
        _, forward = broker.water_fill([], hdd)
        _, backward = broker.water_fill([], hdd[::-1])
        assert forward == backward[::-1]
        assert forward[1] == 3.0  # a small demand is met in full


class TestApportion:
    def test_equal_demands_get_equal_grants(self, fabric):
        broker = StorageBroker(fabric)
        for job_id in (1, 2):
            broker.register(job_id, dataset_bytes=1e15, popularity_bytes_for_80pct=0.4)
        demand = fabric.total_bandwidth  # each asks for the whole fabric
        grants = apportion(broker, {1: demand, 2: demand})
        assert grants[1].total_bytes_per_s == pytest.approx(grants[2].total_bytes_per_s)
        total = sum(g.total_bytes_per_s for g in grants.values())
        assert total <= fabric.total_bandwidth + 1e-6

    def test_uncontended_demand_satisfied(self, fabric):
        broker = StorageBroker(fabric)
        broker.register(1, dataset_bytes=1e15, popularity_bytes_for_80pct=0.4)
        grants = apportion(broker, {1: fabric.hdd_bandwidth / 10})
        assert grants[1].satisfied

    def test_cache_expands_effective_bandwidth(self):
        # With a cache absorbing most traffic, two jobs can jointly pull
        # more than the HDD tier alone could serve.
        fabric = StorageFabric(n_hdd_nodes=4, n_ssd_cache_nodes=8)
        broker = StorageBroker(fabric)
        for job_id in (1, 2):
            broker.register(
                job_id,
                dataset_bytes=fabric.cache_capacity_bytes,
                popularity_bytes_for_80pct=0.3,
            )
        demand = fabric.total_bandwidth
        grants = apportion(broker, {1: demand, 2: demand})
        total = sum(g.total_bytes_per_s for g in grants.values())
        assert total > fabric.hdd_bandwidth

    def test_unregistered_job_rejected(self, fabric):
        broker = StorageBroker(fabric)
        with pytest.raises(StorageError):
            apportion(broker, {99: 1.0})
