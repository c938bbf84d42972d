"""Training jobs: the unit of the collaborative release process.

Section 4.1: models are developed through three job kinds —
*exploratory* (hundreds to thousands, small, <5% of the table), *combo*
(tens to hundreds, large, trained within a short window), and *release
candidates* (few, large, fresh data).  Many jobs are killed or fail
when their performance is lackluster.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from ..common.errors import ConfigError

_job_ids = itertools.count()


class JobKind(enum.Enum):
    """Phase of the release process a job belongs to."""

    EXPLORATORY = "exploratory"
    COMBO = "combo"
    RELEASE_CANDIDATE = "release_candidate"


class JobStatus(enum.Enum):
    """Terminal status of a training job (Figure 4's categories)."""

    COMPLETED = "completed"
    KILLED = "killed"  # engineer abandoned a lackluster idea
    FAILED = "failed"  # infrastructure or convergence failure
    RUNNING = "running"


@dataclass
class TrainingJob:
    """One training job with its resource footprint over time."""

    model_name: str
    kind: JobKind
    start_day: float
    duration_days: float
    trainer_nodes: int
    table_fraction: float  # share of the model's table the job reads
    status: JobStatus = JobStatus.RUNNING
    job_id: int = -1

    def __post_init__(self) -> None:
        if self.job_id < 0:
            self.job_id = next(_job_ids)
        if self.duration_days <= 0:
            raise ConfigError("job duration must be positive")
        if self.trainer_nodes <= 0:
            raise ConfigError("job needs at least one trainer node")
        if not 0 < self.table_fraction <= 1:
            raise ConfigError("table fraction must be in (0, 1]")

    @property
    def end_day(self) -> float:
        """Day the job finishes (or was killed)."""
        return self.start_day + self.duration_days

    @property
    def node_days(self) -> float:
        """Total compute footprint (trainer-node × days)."""
        return self.trainer_nodes * self.duration_days
