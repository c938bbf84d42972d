"""Training jobs, the release process, and fleet utilization."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.cluster import release
from repro.cluster import (
    JobKind,
    JobStatus,
    ModelCadence,
    TrainingJob,
    generate_release_iteration,
    peak_to_median_ratio,
    simulate_year,
)


class TestTrainingJob:
    def test_active_window(self):
        job = TrainingJob("m", JobKind.COMBO, start_day=10.0, duration_days=5.0,
                          trainer_nodes=8, table_fraction=0.9)
        assert job.end_day == 15.0
        assert job.node_days == 40.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainingJob("m", JobKind.COMBO, 0, 0, 1, 0.5)
        with pytest.raises(ConfigError):
            TrainingJob("m", JobKind.COMBO, 0, 1, 0, 0.5)
        with pytest.raises(ConfigError):
            TrainingJob("m", JobKind.COMBO, 0, 1, 1, 1.5)

    def test_unique_ids(self):
        a = TrainingJob("m", JobKind.COMBO, 0, 1, 1, 0.5)
        b = TrainingJob("m", JobKind.COMBO, 0, 1, 1, 0.5)
        assert a.job_id != b.job_id


WINDOW = release.COMBO_WINDOW_DAYS
# Per phase: job count, trainer nodes, and start-day window after the
# iteration's start.
PHASES = {
    JobKind.EXPLORATORY: (
        release.N_EXPLORATORY, release.EXPLORATORY_TRAINER_NODES, (0.0, WINDOW)
    ),
    JobKind.COMBO: (release.N_COMBO, release.COMBO_TRAINER_NODES, (WINDOW, 2 * WINDOW)),
    JobKind.RELEASE_CANDIDATE: (
        release.N_RELEASE_CANDIDATES, release.RC_TRAINER_NODES,
        (2 * WINDOW, 2 * WINDOW + 3.0),
    ),
}


class TestReleaseProcess:
    def test_figure4_combo_count(self):
        """Figure 4 shows 82 combo jobs in one RM1 iteration."""
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        assert len(iteration.jobs_of_kind(JobKind.COMBO)) == 82

    def test_duration_skew(self):
        """Figure 4: heavy temporal skew across combo jobs."""
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        assert iteration.combo_duration_skew() > 2.0

    def test_some_jobs_exceed_ten_days(self):
        """Section 4.1: individual jobs can take over 10 days."""
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        longest = max(j.duration_days for j in iteration.jobs)
        assert longest > 10.0

    def test_many_jobs_killed_or_failed(self):
        """Section 4.1: many jobs fail or are killed."""
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        non_rc = [j for j in iteration.jobs if j.kind is not JobKind.RELEASE_CANDIDATE]
        unfinished = [
            j for j in non_rc if j.status in (JobStatus.KILLED, JobStatus.FAILED)
        ]
        assert 0.25 < len(unfinished) / len(non_rc) < 0.55

    def test_exploratory_jobs_use_small_table_fractions(self):
        """Section 4.1: exploratory jobs use <5% of the table."""
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        for job in iteration.jobs_of_kind(JobKind.EXPLORATORY):
            assert job.table_fraction <= 0.05

    def test_combo_jobs_use_majority_of_table(self):
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        for job in iteration.jobs_of_kind(JobKind.COMBO):
            assert job.table_fraction >= 0.7

    def test_release_candidates_few_and_complete(self):
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        rcs = iteration.jobs_of_kind(JobKind.RELEASE_CANDIDATE)
        assert len(rcs) <= 5
        assert all(j.status is JobStatus.COMPLETED for j in rcs)

    def test_deterministic_under_seed(self):
        a = generate_release_iteration("RM1", 0.0, seed=9)
        b = generate_release_iteration("RM1", 0.0, seed=9)
        assert [j.duration_days for j in a.jobs] == [j.duration_days for j in b.jobs]

    def test_seeds_draw_different_iterations(self):
        a = generate_release_iteration("RM1", 0.0, seed=1)
        b = generate_release_iteration("RM1", 0.0, seed=2)
        assert [j.duration_days for j in a.jobs] != [j.duration_days for j in b.jobs]

    def test_iteration_holds_every_phase(self):
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        counts = {kind: len(iteration.jobs_of_kind(kind)) for kind in PHASES}
        assert counts == {kind: n for kind, (n, _, _) in PHASES.items()}
        assert len(iteration.jobs) == sum(counts.values())
        assert all(job.model_name == "RM1" for job in iteration.jobs)

    @pytest.mark.parametrize("kind", list(PHASES), ids=lambda kind: kind.value)
    def test_each_phase_runs_its_trainer_count(self, kind):
        iteration = generate_release_iteration("RM1", 0.0, seed=1)
        _, nodes, _ = PHASES[kind]
        assert {job.trainer_nodes for job in iteration.jobs_of_kind(kind)} == {nodes}

    @pytest.mark.parametrize("kind", list(PHASES), ids=lambda kind: kind.value)
    def test_each_phase_starts_inside_its_window(self, kind):
        start = 100.0
        iteration = generate_release_iteration("RM1", start, seed=1)
        _, _, (lo, hi) = PHASES[kind]
        for job in iteration.jobs_of_kind(kind):
            assert start + lo <= job.start_day < start + hi

    def test_start_day_shifts_every_job(self):
        a = generate_release_iteration("RM1", 0.0, seed=4)
        b = generate_release_iteration("RM1", 30.0, seed=4)
        for early, late in zip(a.jobs, b.jobs):
            assert late.start_day == pytest.approx(early.start_day + 30.0)
            assert late.duration_days == early.duration_days

    def test_status_rates_follow_the_constants(self):
        statuses = [
            job.status
            for seed in range(5)
            for job in generate_release_iteration("RM1", 0.0, seed=seed).jobs
            if job.kind is not JobKind.RELEASE_CANDIDATE
        ]
        killed = statuses.count(JobStatus.KILLED) / len(statuses)
        failed = statuses.count(JobStatus.FAILED) / len(statuses)
        assert killed == pytest.approx(release.KILL_RATE, abs=0.03)
        assert failed == pytest.approx(release.FAILURE_RATE, abs=0.03)


class TestYearSimulation:
    def test_demand_trace_shape(self):
        """Figure 5: distinct peaks above the exploratory floor."""
        cadences = [
            ModelCadence(f"M{i}", iteration_period_days=42.0, phase_days=(i % 3) * 2.0)
            for i in range(8)
        ]
        daily, jobs = simulate_year(cadences, days=365, seed=2)
        assert len(daily) == 365
        assert peak_to_median_ratio(daily) > 1.2
        assert len(jobs) > 1_000

    def test_staggered_phases_flatten_peaks(self):
        """Spreading release cadences lowers the fleet's demand peaks —
        the scheduling opportunity of Section 7.3."""
        aligned = [ModelCadence(f"A{i}", 42.0, phase_days=0.0) for i in range(6)]
        staggered = [ModelCadence(f"S{i}", 42.0, phase_days=i * 7.0) for i in range(6)]
        peak_aligned, _ = simulate_year(aligned, days=200, seed=3)
        peak_staggered, _ = simulate_year(staggered, days=200, seed=3)
        assert peak_aligned.max() > peak_staggered.max()

    def test_empty_cadences_rejected(self):
        with pytest.raises(ConfigError):
            simulate_year([], days=10)

    def test_zero_median_rejected(self):
        with pytest.raises(ConfigError):
            peak_to_median_ratio(np.zeros(10))
