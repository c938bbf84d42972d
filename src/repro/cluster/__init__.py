"""Coordinated training at scale: jobs, releases, regions, power."""

from .admission import (
    AdmissionOutcome,
    AdmissionReport,
    admit_jobs,
    capacity_for_delay,
)
from .job import JobKind, JobStatus, TrainingJob
from .power import PowerBreakdown, efficiency_gain_to_trainer_watts, power_breakdown
from .region import Region
from .release import ReleaseIteration, generate_release_iteration
from .scheduler import (
    ModelDemand,
    ScheduleOutcome,
    schedule_balanced,
    schedule_bin_packed,
)
from .utilization import ModelCadence, peak_to_median_ratio, simulate_year

__all__ = [
    "AdmissionOutcome",
    "AdmissionReport",
    "admit_jobs",
    "capacity_for_delay",
    "JobKind",
    "JobStatus",
    "ModelCadence",
    "ModelDemand",
    "PowerBreakdown",
    "Region",
    "ReleaseIteration",
    "ScheduleOutcome",
    "TrainingJob",
    "efficiency_gain_to_trainer_watts",
    "generate_release_iteration",
    "peak_to_median_ratio",
    "power_breakdown",
    "schedule_balanced",
    "schedule_bin_packed",
    "simulate_year",
]
