"""Cross-job worker-pool scheduling and the power coupling."""

import pytest

from repro.cluster.job import JobKind
from repro.common.errors import ConfigError, SchedulingError
from repro.fleet import FleetPowerBudget
from repro.fleet.allocator import KIND_PRIORITY, allocate

from .oracles import WorkerRequest, allocate_requests


def row(job_id, desired, kind=JobKind.EXPLORATORY, minimum=1):
    return (KIND_PRIORITY[kind], job_id, desired, minimum)


class TestAllocation:
    def test_uncontended_requests_fully_granted(self):
        assert allocate([row(1, 30), row(2, 40)], 100) == {1: 30, 2: 40}

    def test_contended_pool_split_max_min(self):
        granted = allocate([row(1, 100), row(2, 100)], 50)
        assert granted[1] == 25
        assert granted[2] == 25

    def test_small_ask_satisfied_before_large(self):
        granted = allocate([row(1, 10), row(2, 500)], 60)
        assert granted[1] == 10
        assert granted[2] == 50

    def test_priority_tiers_starve_downward(self):
        # A release candidate takes the whole pool before exploratory
        # jobs see anything beyond their minimum.
        granted = allocate(
            [
                row(1, 100, kind=JobKind.EXPLORATORY),
                row(2, 100, kind=JobKind.RELEASE_CANDIDATE),
            ],
            40,
        )
        assert granted[2] == 39
        assert granted[1] == 1  # the minimum floor only

    def test_combo_outranks_exploratory(self):
        granted = allocate(
            [
                row(1, 50, kind=JobKind.EXPLORATORY),
                row(2, 20, kind=JobKind.COMBO),
            ],
            30,
        )
        assert granted[2] == 20
        assert granted[1] == 10

    def test_grants_never_exceed_desired(self):
        assert allocate([row(1, 7), row(2, 3)], 1000) == {1: 7, 2: 3}

    def test_round_leaves_its_rows_as_given(self):
        # The fleet control loop memoizes on the rows it passed in.
        rows = [row(2, 9), row(1, 50, kind=JobKind.COMBO), row(3, 4)]
        before = list(rows)
        assert allocate(rows, 12) == allocate(rows, 12)
        assert rows == before

    def test_duplicate_jobs_rejected(self):
        request = WorkerRequest(job_id=1, kind=JobKind.EXPLORATORY, desired=5)
        with pytest.raises(SchedulingError):
            allocate_requests([request, request], 100_000)


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
        pool = min(10_000, self.budget().worker_cap(10))
        assert allocate([row(1, 10_000)], pool) == {1: 400}

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
