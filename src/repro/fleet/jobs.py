"""Fleet job specifications and trace-driven arrival generation.

The paper's fleet view (Sections 4 and 7): a region hosts *many*
concurrent training jobs — a diurnal stream of small exploratory jobs,
synchronized waves of large combo jobs inside release windows, and a
few release candidates — all drawing on shared storage, preprocessing,
and power.  :class:`JobGenerator` turns those workload shapes (over the
RM1/RM2/RM3 mixes from :mod:`repro.workloads`) into a deterministic
arrival trace the fleet simulator replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.job import JobKind
from ..common.errors import ConfigError
from ..workloads.models import ALL_MODELS, ModelConfig

#: Seconds per day: the period of the diurnal arrival cycle.
DAY_S = 86_400.0


@dataclass(frozen=True)
class FleetJobSpec:
    """One training job as the fleet orchestration plane sees it.

    The fleet plane works in samples and seconds: a job arrives, needs
    *trainer_nodes* for the duration, and completes once its trainers
    have consumed *target_samples* preprocessed samples.  How long that
    takes depends on the DPP workers and storage bandwidth the fleet
    can actually grant it.
    """

    job_id: int
    model: ModelConfig
    kind: JobKind
    arrival_s: float
    trainer_nodes: int
    target_samples: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigError("arrival time cannot be negative")
        if self.trainer_nodes < 1:
            raise ConfigError("a job needs at least one trainer node")
        if self.target_samples <= 0:
            raise ConfigError("target samples must be positive")

    @property
    def demand_samples_per_s(self) -> float:
        """GPU-side consumption demand (Tables 8 and 9)."""
        return self.trainer_nodes * self.model.samples_per_s_per_trainer

    @property
    def ideal_duration_s(self) -> float:
        """Runtime if preprocessing never limits the trainers."""
        return self.target_samples / self.demand_samples_per_s

    @property
    def storage_rx_bytes_per_sample(self) -> float:
        """Compressed bytes pulled from Tectonic per trained sample."""
        samples_per_s = self.model.dpp.kqps * 1_000
        return self.model.dpp.storage_rx_gbs * 1e9 / samples_per_s


@dataclass(frozen=True)
class FleetMix:
    """Workload-mix and arrival-shape knobs for one generated trace.

    Defaults sketch a busy region: a diurnal exploratory stream with
    occasional bursts (engineers iterate in clusters), plus optional
    combo waves pinned to release windows.  Durations are lognormal —
    the Figure 4 skew.
    """

    models: tuple[ModelConfig, ...] = ALL_MODELS
    model_weights: tuple[float, ...] = (0.40, 0.35, 0.25)
    # Exploratory stream (diurnal, bursty).
    exploratory_per_day: float = 48.0
    diurnal_amplitude: float = 0.6  # fractional swing around the mean rate
    peak_hour: float = 14.0
    burst_probability: float = 0.25  # chance an arrival drags companions along
    burst_size_mean: float = 2.0  # companions per burst (geometric mean)
    burst_spread_s: float = 900.0
    exploratory_nodes: int = 2
    exploratory_duration_median_s: float = 2.0 * 3600
    exploratory_duration_sigma: float = 0.7
    # Combo waves (release windows).
    combo_wave_starts_s: tuple[float, ...] = ()
    combo_jobs_per_wave: int = 12
    combo_window_s: float = 6.0 * 3600
    combo_nodes: int = 8
    combo_duration_median_s: float = 8.0 * 3600
    combo_duration_sigma: float = 0.9
    # Release candidates (rare, large, fresh data).
    release_candidate_starts_s: tuple[float, ...] = ()
    release_candidate_nodes: int = 12
    release_candidate_duration_s: float = 16.0 * 3600

    def __post_init__(self) -> None:
        if len(self.models) != len(self.model_weights):
            raise ConfigError("one weight per model required")
        if not self.models:
            raise ConfigError("mix needs at least one model")
        if any(w <= 0 for w in self.model_weights):
            raise ConfigError("model weights must be positive")
        if self.exploratory_per_day < 0:
            raise ConfigError("arrival rate cannot be negative")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigError("diurnal amplitude must be in [0, 1)")
        if not 0 <= self.burst_probability < 1:
            raise ConfigError("burst probability must be in [0, 1)")
        if self.burst_size_mean < 1:
            raise ConfigError("burst size mean must be at least 1 companion")


class JobGenerator:
    """Draws deterministic fleet-job arrival traces from a mix."""

    def __init__(self, mix: FleetMix | None = None, seed: int = 0) -> None:
        self.mix = mix or FleetMix()
        self.seed = seed

    def generate(self, duration_s: float) -> list[FleetJobSpec]:
        """All jobs arriving inside ``[0, duration_s)``, arrival-sorted."""
        if duration_s <= 0:
            raise ConfigError("trace duration must be positive")
        mix = self.mix
        rng = np.random.default_rng(self.seed)
        jobs: list[FleetJobSpec] = []
        next_id = 0

        def draw_model() -> ModelConfig:
            weights = np.asarray(mix.model_weights, dtype=float)
            index = rng.choice(len(mix.models), p=weights / weights.sum())
            return mix.models[int(index)]

        def add(kind: JobKind, arrival: float, nodes: int, job_duration: float) -> None:
            nonlocal next_id
            model = draw_model()
            demand = nodes * model.samples_per_s_per_trainer
            jobs.append(
                FleetJobSpec(
                    job_id=next_id,
                    model=model,
                    kind=kind,
                    arrival_s=arrival,
                    trainer_nodes=nodes,
                    target_samples=job_duration * demand,
                )
            )
            next_id += 1

        # Exploratory stream: inhomogeneous Poisson by thinning against
        # the diurnal peak rate, with geometric burst companions.
        peak_rate = mix.exploratory_per_day / DAY_S * (1 + mix.diurnal_amplitude)
        t = 0.0
        while peak_rate > 0:
            t += float(rng.exponential(1.0 / peak_rate))
            if t >= duration_s:
                break
            if rng.random() > self._diurnal_factor(t) / (1 + mix.diurnal_amplitude):
                continue  # thinned: off-peak hours see fewer arrivals
            arrivals = [t]
            if rng.random() < mix.burst_probability:
                # geometric(p) has mean 1/p, support >= 1.
                companions = int(rng.geometric(1.0 / mix.burst_size_mean))
                arrivals += [
                    min(duration_s - 1e-6, t + float(rng.uniform(0, mix.burst_spread_s)))
                    for _ in range(companions)
                ]
            for arrival in arrivals:
                add(
                    JobKind.EXPLORATORY,
                    arrival,
                    mix.exploratory_nodes,
                    float(
                        rng.lognormal(
                            math.log(mix.exploratory_duration_median_s),
                            mix.exploratory_duration_sigma,
                        )
                    ),
                )

        # Combo waves: engineers launch asynchronously inside a window,
        # giving the large temporal skew of Section 4.1.
        for wave_start in mix.combo_wave_starts_s:
            for _ in range(mix.combo_jobs_per_wave):
                arrival = wave_start + float(rng.uniform(0, mix.combo_window_s))
                if arrival >= duration_s:
                    continue
                add(
                    JobKind.COMBO,
                    arrival,
                    mix.combo_nodes,
                    float(
                        rng.lognormal(
                            math.log(mix.combo_duration_median_s),
                            mix.combo_duration_sigma,
                        )
                    ),
                )

        # Release candidates: few, large, fixed-length.
        for start in mix.release_candidate_starts_s:
            if start >= duration_s:
                continue
            add(
                JobKind.RELEASE_CANDIDATE,
                start,
                mix.release_candidate_nodes,
                mix.release_candidate_duration_s,
            )

        return sorted(jobs, key=lambda job: (job.arrival_s, job.job_id))

    def _diurnal_factor(self, t: float) -> float:
        """Relative arrival intensity at virtual time *t* (mean 1.0)."""
        mix = self.mix
        phase = 2 * math.pi * ((t / DAY_S) - mix.peak_hour / 24.0)
        return 1.0 + mix.diurnal_amplitude * math.cos(phase)
