"""Combo-window admission control (§4.2)."""

import pytest
from hypothesis import example, given, strategies as st

from repro.cluster import JobKind, TrainingJob, generate_release_iteration
from repro.cluster.admission import admit_jobs, capacity_for_delay
from repro.common.errors import SchedulingError


def job(start, duration, nodes=16):
    return TrainingJob("m", JobKind.COMBO, start, duration, nodes, 0.9)


class TestAdmission:
    def test_infinite_capacity_no_delay(self):
        jobs = [job(i, 3.0) for i in range(5)]
        report = admit_jobs(jobs, capacity_nodes=1_000)
        assert report.mean_queue_delay_days == 0.0

    def test_serialized_under_tight_capacity(self):
        jobs = [job(0.0, 2.0), job(0.0, 2.0), job(0.0, 2.0)]
        report = admit_jobs(jobs, capacity_nodes=16)  # one at a time
        delays = sorted(o.queue_delay_days for o in report.outcomes)
        assert delays == [0.0, 2.0, 4.0]
        assert report.makespan_days == 6.0

    def test_two_at_a_time(self):
        jobs = [job(0.0, 2.0) for _ in range(4)]
        report = admit_jobs(jobs, capacity_nodes=32)
        assert report.makespan_days == 4.0

    def test_capacity_released_between_arrivals(self):
        jobs = [job(0.0, 1.0), job(5.0, 1.0)]
        report = admit_jobs(jobs, capacity_nodes=16)
        assert report.outcomes[1].queue_delay_days == 0.0

    def test_oversized_job_rejected(self):
        with pytest.raises(SchedulingError):
            admit_jobs([job(0.0, 1.0, nodes=64)], capacity_nodes=32)

    def test_invalid_capacity(self):
        with pytest.raises(SchedulingError):
            admit_jobs([job(0.0, 1.0)], capacity_nodes=0)

    def test_utilization_bounded(self):
        jobs = [job(float(i), 2.0) for i in range(6)]
        report = admit_jobs(jobs, capacity_nodes=32)
        assert 0 < report.utilization() <= 1.0


class TestReleaseWindowProvisioning:
    def test_more_capacity_less_delay(self):
        combos = generate_release_iteration("RM1", 0.0, seed=3).jobs_of_kind(
            JobKind.COMBO
        )
        tight = admit_jobs(combos, capacity_nodes=64)
        ample = admit_jobs(combos, capacity_nodes=512)
        assert ample.mean_queue_delay_days < tight.mean_queue_delay_days
        assert ample.makespan_days <= tight.makespan_days

    def test_under_provisioning_stretches_the_release(self):
        """Capacity below the combo peak directly delays model release
        — the §4.2 argument for provisioning to peak."""
        combos = generate_release_iteration("RM1", 0.0, seed=3).jobs_of_kind(
            JobKind.COMBO
        )
        starved = admit_jobs(combos, capacity_nodes=48)
        assert starved.p95_queue_delay_days > 3.0

    def test_capacity_for_delay_search(self):
        combos = generate_release_iteration("RM1", 0.0, seed=3).jobs_of_kind(
            JobKind.COMBO
        )
        needed = capacity_for_delay(combos, max_mean_delay_days=0.5)
        report = admit_jobs(combos, needed)
        assert report.mean_queue_delay_days <= 0.5
        # And it is genuinely the frontier: 25% less capacity misses.
        worse = admit_jobs(combos, needed * 0.75)
        assert worse.mean_queue_delay_days > 0.5

    def test_delay_target_validation(self):
        with pytest.raises(SchedulingError):
            capacity_for_delay([job(0.0, 1.0)], -1.0)


def node_use_at_admissions(report) -> list[int]:
    """Nodes in use at each admission instant (use only rises there)."""
    spans = [
        (o.admitted_day, o.admitted_day + o.job.duration_days, o.job.trainer_nodes)
        for o in report.outcomes
    ]
    return [
        sum(nodes for start, end, nodes in spans if start <= instant < end)
        for instant, _, _ in spans
    ]


# (start day, days, nodes): whole numbers, so the sums are exact.
job_shapes = st.lists(
    st.tuples(st.integers(0, 10), st.integers(1, 6), st.integers(1, 20)),
    min_size=1,
    max_size=12,
)


@given(job_shapes, st.integers(20, 40))
@example([(0, 5, 10), (0, 6, 8), (1, 5, 5), (2, 1, 7)], 20)
def test_admission_is_strict_fcfs_and_never_over_commits(shapes, capacity):
    """A later, smaller job must not overtake a waiting one: the example
    once admitted its fourth job on day 2 and its third on day 5, with
    25 nodes running in a 20-node region on days 2-3."""
    jobs = [job(float(start), float(days), nodes) for start, days, nodes in shapes]
    report = admit_jobs(jobs, capacity_nodes=capacity)
    arrival_order = sorted(jobs, key=lambda j: j.start_day)
    assert [o.job for o in report.outcomes] == arrival_order
    admitted = [o.admitted_day for o in report.outcomes]
    assert admitted == sorted(admitted)
    assert all(o.queue_delay_days >= 0 for o in report.outcomes)
    assert max(node_use_at_admissions(report)) <= capacity


def test_the_overtaking_case_waits_its_turn():
    jobs = [job(0.0, 5.0, 10), job(0.0, 6.0, 8), job(1.0, 5.0, 5), job(2.0, 1.0, 7)]
    report = admit_jobs(jobs, capacity_nodes=20)
    assert [o.admitted_day for o in report.outcomes] == [0.0, 0.0, 5.0, 5.0]
    assert node_use_at_admissions(report) == [18, 18, 20, 20]
