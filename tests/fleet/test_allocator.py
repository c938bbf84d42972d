"""Cross-job worker-pool scheduling and the power coupling."""

import pytest

from repro.cluster.job import JobKind
from repro.common.errors import ConfigError, SchedulingError
from repro.fleet import FleetPowerBudget, GlobalDppAllocator, PoolConfig

from .oracles import WorkerRequest, allocate


def request(job_id, desired, kind=JobKind.EXPLORATORY, minimum=1):
    return WorkerRequest(job_id=job_id, kind=kind, desired=desired, minimum=minimum)


class TestAllocation:
    def test_uncontended_requests_fully_granted(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=100))
        granted = allocate(allocator, [request(1, 30), request(2, 40)], 0)
        assert granted == {1: 30, 2: 40}

    def test_contended_pool_split_max_min(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=50))
        granted = allocate(allocator, [request(1, 100), request(2, 100)], 0)
        assert granted[1] == 25
        assert granted[2] == 25

    def test_small_ask_satisfied_before_large(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=60))
        granted = allocate(allocator, [request(1, 10), request(2, 500)], 0)
        assert granted[1] == 10
        assert granted[2] == 50

    def test_priority_tiers_starve_downward(self):
        # A release candidate takes the whole pool before exploratory
        # jobs see anything beyond their minimum.
        allocator = GlobalDppAllocator(PoolConfig(max_workers=40))
        granted = allocate(allocator, 
            [
                request(1, 100, kind=JobKind.EXPLORATORY),
                request(2, 100, kind=JobKind.RELEASE_CANDIDATE),
            ],
            0,
        )
        assert granted[2] == 39
        assert granted[1] == 1  # the minimum floor only

    def test_combo_outranks_exploratory(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=30))
        granted = allocate(allocator, 
            [
                request(1, 50, kind=JobKind.EXPLORATORY),
                request(2, 20, kind=JobKind.COMBO),
            ],
            0,
        )
        assert granted[2] == 20
        assert granted[1] == 10

    def test_grants_never_exceed_desired(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=1000))
        granted = allocate(allocator, [request(1, 7), request(2, 3)], 0)
        assert granted == {1: 7, 2: 3}

    def test_duplicate_jobs_rejected(self):
        allocator = GlobalDppAllocator()
        with pytest.raises(SchedulingError):
            allocate(allocator, [request(1, 5), request(1, 5)], 0)

    def test_rounds_recorded(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=10))
        allocate(allocator, [request(1, 20)], 0, time_s=300.0)
        assert allocator.rounds[-1].time_s == 300.0
        assert sum(allocator.rounds[-1].granted.values()) == 10


class TestPowerBudget:
    def budget(self, watts=100_000.0):
        return FleetPowerBudget(
            budget_watts=watts,
            storage_watts=10_000.0,
            trainer_node_watts=3_000.0,
            worker_node_watts=150.0,
        )

    def test_worker_cap_shrinks_with_active_trainers(self):
        budget = self.budget()
        assert budget.worker_cap(0) == 600
        assert budget.worker_cap(10) == 400
        assert budget.worker_cap(30) == 0

    def test_allocator_honors_power_cap(self):
        allocator = GlobalDppAllocator(PoolConfig(max_workers=10_000), self.budget())
        granted = allocate(allocator, [request(1, 10_000)], active_trainer_nodes=10)
        assert granted[1] == 400

    def test_draw_watts_adds_up(self):
        budget = self.budget()
        assert budget.draw_watts(4, 100) == pytest.approx(
            10_000.0 + 4 * 3_000.0 + 100 * 150.0
        )

    def test_storage_over_budget_rejected(self):
        with pytest.raises(ConfigError):
            FleetPowerBudget(
                budget_watts=1_000.0,
                storage_watts=2_000.0,
                trainer_node_watts=1.0,
                worker_node_watts=1.0,
            )


class TestRequestValidation:
    def test_desired_below_minimum_rejected(self):
        with pytest.raises(ConfigError):
            WorkerRequest(job_id=1, kind=JobKind.COMBO, desired=1, minimum=5)

    def test_headroom_below_one_rejected(self):
        with pytest.raises(ConfigError):
            PoolConfig(headroom=0.5)
