"""The collaborative release process generator.

Generates one model-release iteration's job population with the shapes
Section 4.1 describes: a horde of small exploratory jobs, a burst of
large combo jobs launched asynchronously inside a short window with
heavily skewed durations and many kills (Figure 4), and a few release
candidates on fresh data.  The shapes are the module constants below;
every study draws its iterations with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .job import JobKind, JobStatus, TrainingJob

# Shape of one release iteration, after the paper's RM1 narrative: ~82
# combo jobs per iteration (Figure 4), individual jobs running up to >10
# days, and a substantial kill/failure rate.
N_EXPLORATORY = 400
N_COMBO = 82
N_RELEASE_CANDIDATES = 4
COMBO_WINDOW_DAYS = 14.0
COMBO_DURATION_MEDIAN_DAYS = 4.0
COMBO_DURATION_SIGMA = 0.9  # lognormal shape: long right tail
COMBO_TRAINER_NODES = 16
EXPLORATORY_TRAINER_NODES = 2
RC_TRAINER_NODES = 24
KILL_RATE = 0.30
FAILURE_RATE = 0.10


@dataclass
class ReleaseIteration:
    """All jobs of one release iteration."""

    model_name: str
    start_day: float
    jobs: list[TrainingJob]

    def jobs_of_kind(self, kind: JobKind) -> list[TrainingJob]:
        """Jobs in one phase."""
        return [job for job in self.jobs if job.kind is kind]

    def combo_duration_skew(self) -> float:
        """p95/p50 of combo durations — the Figure 4 skew statistic."""
        durations = sorted(
            job.duration_days for job in self.jobs_of_kind(JobKind.COMBO)
        )
        mid = durations[len(durations) // 2]
        p95 = durations[int(len(durations) * 0.95)]
        return p95 / mid


def generate_release_iteration(
    model_name: str,
    start_day: float,
    seed: int = 0,
) -> ReleaseIteration:
    """Draw one iteration's jobs from the release-process model."""
    rng = np.random.default_rng(seed)
    jobs: list[TrainingJob] = []

    # Phase 1: exploratory jobs trickle in ahead of the combo window.
    for _ in range(N_EXPLORATORY):
        jobs.append(
            TrainingJob(
                model_name=model_name,
                kind=JobKind.EXPLORATORY,
                start_day=start_day + float(rng.uniform(0, COMBO_WINDOW_DAYS)),
                duration_days=float(rng.lognormal(np.log(0.8), 0.6)),
                trainer_nodes=EXPLORATORY_TRAINER_NODES,
                table_fraction=float(rng.uniform(0.005, 0.05)),
                status=_draw_status(rng),
            )
        )

    # Phase 2: combo jobs. "Instead of waiting to launch jobs
    # synchronously, engineers will immediately schedule new jobs ...
    # resulting in a large temporal skew between jobs."
    combo_start = start_day + COMBO_WINDOW_DAYS
    for _ in range(N_COMBO):
        duration = float(
            rng.lognormal(np.log(COMBO_DURATION_MEDIAN_DAYS), COMBO_DURATION_SIGMA)
        )
        jobs.append(
            TrainingJob(
                model_name=model_name,
                kind=JobKind.COMBO,
                start_day=combo_start + float(rng.uniform(0, COMBO_WINDOW_DAYS)),
                duration_days=duration,
                trainer_nodes=COMBO_TRAINER_NODES,
                table_fraction=float(rng.uniform(0.7, 1.0)),
                status=_draw_status(rng),
            )
        )

    # Phase 3: a few release candidates on fresh data.
    rc_start = combo_start + COMBO_WINDOW_DAYS
    for _ in range(N_RELEASE_CANDIDATES):
        jobs.append(
            TrainingJob(
                model_name=model_name,
                kind=JobKind.RELEASE_CANDIDATE,
                start_day=rc_start + float(rng.uniform(0, 3.0)),
                duration_days=float(rng.lognormal(np.log(6.0), 0.4)),
                trainer_nodes=RC_TRAINER_NODES,
                table_fraction=float(rng.uniform(0.85, 1.0)),
                status=JobStatus.COMPLETED,
            )
        )
    return ReleaseIteration(model_name, start_day, jobs)


def _draw_status(rng: np.random.Generator) -> JobStatus:
    draw = rng.random()
    if draw < KILL_RATE:
        return JobStatus.KILLED
    if draw < KILL_RATE + FAILURE_RATE:
        return JobStatus.FAILED
    return JobStatus.COMPLETED
